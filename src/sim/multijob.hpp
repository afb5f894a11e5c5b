// Multi-job co-scheduling (the roadmap item "Scenario diversity: churn,
// failures, and multi-job contention"): replay N independently traced
// jobs on ONE shared cluster and quantify what sharing cost each of them.
//
// The merge is mechanical: task ids are offset per job, peer references
// remapped (kAnySource is job-local in spirit but safe as-is — pending sends
// are matched by the receiver's global task id, and jobs never address each
// other), and barriers stay job-scoped through Scenario::job_of, so job A's
// barrier never waits on job B. The contention is then real: all transfers
// share the cluster's nodes and their links.
//
// For each job the runner also replays it ALONE on the same cluster under
// the same churn/background scenario; the interference percentage is the
// makespan inflation attributable purely to the co-scheduled jobs:
//
//   interference_pct = (makespan_shared / makespan_alone - 1) * 100
//
// sim::render_multi_job_table (sim/report.hpp) formats the outcome.
#pragma once

#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace bwshare::sim {

/// One job of a co-scheduled replay: its trace and where its tasks sit on
/// the shared cluster. Placements may overlap across jobs — that is the
/// point — but each must be valid for the cluster on its own.
struct JobSpec {
  std::string name;
  AppTrace trace;
  Placement placement;
};

struct JobOutcome {
  std::string name;
  int num_tasks = 0;
  /// Makespan of this job replayed alone on the same cluster and scenario.
  double makespan_alone = 0.0;
  /// Finish time of this job's last task in the shared replay.
  double makespan_shared = 0.0;
  /// (makespan_shared / makespan_alone - 1) * 100.
  double interference_pct = 0.0;
};

struct MultiJobResult {
  /// The shared replay, tasks concatenated in job order.
  SimResult combined;
  std::vector<JobOutcome> jobs;
  /// Task -> job id in the combined replay (also what the engine saw).
  std::vector<int> job_of;
};

/// Co-schedule `jobs` on `cluster` and report per-job interference.
/// `scenario` may carry churn/background scripts (applied to the shared run
/// AND every alone run, so interference isolates the co-scheduling effect);
/// its job_of must be empty — the runner derives it. Throws bwshare::Error
/// on an empty job list, an invalid per-job trace, or a scenario that
/// already assigns jobs.
[[nodiscard]] MultiJobResult run_multi_job(
    const std::vector<JobSpec>& jobs, const topo::ClusterSpec& cluster,
    const flowsim::RateProvider& provider, const Scenario& scenario = {},
    const EngineConfig& config = {});

}  // namespace bwshare::sim
