// Experiment harness: the measured-vs-predicted comparisons every bench
// binary runs.
//
//   * compare_scheme — static communication graph (paper fig 4 / fig 7):
//     T_m from the fluid substrate, T_p from a penalty model, E_rel/E_abs.
//   * compare_application_detailed — application trace (paper fig 8/9,
//     HPL): per-task communication-time sums S_m/S_p and E_abs(t_i) under a
//     scheduling policy, next to both replays' results.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "graph/comm_graph.hpp"
#include "models/penalty_model.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"

namespace bwshare::eval {

struct SchemeComparison {
  std::vector<double> measured;   // T_m per comm, seconds
  std::vector<double> predicted;  // T_p per comm, seconds
  std::vector<double> erel;       // percent
  double eabs = 0.0;              // percent
};

/// Compare `model` against the fluid substrate on a static scheme.
/// Both sides run through the same §IV-B measurement software.
[[nodiscard]] SchemeComparison compare_scheme(
    const graph::CommGraph& scheme, const topo::ClusterSpec& cluster,
    const models::PenaltyModel& model);

struct TaskComparison {
  double sum_measured = 0.0;   // S_m
  double sum_predicted = 0.0;  // S_p
  double eabs = 0.0;           // percent
};

struct ApplicationComparison {
  std::vector<TaskComparison> tasks;
  double mean_eabs = 0.0;
  double measured_makespan = 0.0;
  double predicted_makespan = 0.0;
  sim::Placement placement;
};

/// Per-replay engine configuration for compare_application_detailed. The
/// defaults are the engine's own; the serving layer threads a
/// sim::SolveMemo into each side for cross-query warm-start — which by the
/// memo's purity contract cannot change a single bit of the comparison,
/// only the amount of solver work behind it.
struct ReplayConfig {
  sim::EngineConfig measured;
  sim::EngineConfig predicted;
};

/// An application comparison plus the full replay results it derives its
/// summary from. The SimResults are shared_ptr so callers (the serve result
/// cache) can retain them without copying the per-comm records.
struct ApplicationComparisonDetailed {
  ApplicationComparison summary;
  std::shared_ptr<const sim::SimResult> measured;
  std::shared_ptr<const sim::SimResult> predicted;
};

/// Replay `trace` twice — fluid substrate ("measured") and `model`
/// ("predicted") — under the given scheduling policy. `scenario` applies
/// the same dynamic-cluster script (churn, background traffic) to BOTH
/// replays, so the comparison stays like-for-like; empty means the static
/// cluster of the paper's figures.
[[nodiscard]] ApplicationComparisonDetailed compare_application_detailed(
    const sim::AppTrace& trace, const topo::ClusterSpec& cluster,
    sim::SchedulingPolicy policy, const models::PenaltyModel& model,
    uint64_t seed = 42, const sim::Scenario& scenario = {},
    const ReplayConfig& config = {});

}  // namespace bwshare::eval
