// Parallel experiment-sweep subsystem: the campaign runner behind
// `bwshare_cli sweep` and the fig-7-style benches.
//
// The paper's evaluation is a grid — scheme × interconnect × model ×
// cluster shape × schedule (figs 4–9) — that the seed repo ran one
// hand-written bench cell at a time. A SweepSpec declares the whole grid;
// Sweep expands it into independent jobs (the cross product, in a fixed
// documented order) and runs them through util::parallel_for. Each job is
// seeded deterministically from its own axis values, never from execution
// order, so the emitted CSV/JSON is byte-identical at any thread count.
//
// Axis reference, defaults and the CSV/JSON column glossary live in
// docs/EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "graph/comm_graph.hpp"
#include "graph/generator.hpp"
#include "sim/events.hpp"
#include "sim/scenario.hpp"
#include "sim/schedule.hpp"
#include "topo/network.hpp"

namespace bwshare::sim {
class SolveMemo;
struct SimResult;
}

namespace bwshare::eval {

/// One cluster shape cell: `nodes` SMP nodes with `cores` cores each.
struct SweepShape {
  int nodes = 16;
  int cores = 2;
};

/// Parse "16x2" into a shape. Throws bwshare::Error on malformed input.
[[nodiscard]] SweepShape parse_sweep_shape(const std::string& text);

/// The declarative grid. Workloads are schemes (static comparison,
/// eval::compare_scheme) and/or traces (application replay,
/// eval::compare_application_detailed). Scheme cells cross every axis except
/// `policies` (placement only matters when tasks are scheduled); trace
/// cells cross all of them.
struct SweepSpec {
  /// Scheme axis entries, each one of:
  ///   * a built-in paper scheme: fig2_s1..fig2_s6, fig4, fig5, mk1, mk2,
  ///     optionally with a message-size override suffix ("mk1@8M");
  ///   * a path ending in ".scheme" (parsed by graph/scheme_parser);
  ///   * a generator spec "family:key=value,..." (graph/generator.hpp),
  ///     expanded per cell with that cell's seed.
  std::vector<std::string> schemes;
  /// Trace axis entries: paths in the sim/trace_io format.
  std::vector<std::string> traces;
  std::vector<topo::NetworkTech> networks = {
      topo::NetworkTech::kGigabitEthernet};
  /// Penalty-model axis: models::make_model names, or the pseudo-name
  /// "network" meaning "the model the paper pairs with the cell's
  /// interconnect" (models::model_for).
  std::vector<std::string> models = {"network"};
  std::vector<SweepShape> shapes = {{16, 2}};
  std::vector<sim::SchedulingPolicy> policies = {
      sim::SchedulingPolicy::kRoundRobinNode};
  /// Membership-churn axis (trace cells only, like `policies`): Poisson
  /// join/leave/fail events per second of simulated time over a 1 s
  /// horizon, scripted per cell from the cell's seed
  /// (graph::generate_churn). 0 = static cluster.
  std::vector<double> churn_rates = {0.0};
  /// Background cross-traffic axis (trace cells only): Poisson 1 MB flows
  /// per second over a 1 s horizon (graph::generate_background). 0 = none.
  std::vector<double> background_loads = {0.0};
  /// Seed axis. A cell's seed drives scheme generation, random placement
  /// and the churn/background scripts; it is the only source of randomness
  /// in a sweep. (eval::Campaign ignores this axis: replicate seeds are
  /// drawn from the campaign's own salted counter stream instead.)
  std::vector<uint64_t> seeds = {42};

  /// Throws bwshare::Error if any axis is empty or no workload is given.
  void validate() const;
  /// Axis validation only — everything validate() checks except workload
  /// presence. Used by eval::Campaign when workloads are supplied
  /// pre-resolved (in-memory traces) rather than through schemes/traces.
  void validate_axes() const;
};

/// A workload entry resolved to something executable: exactly one of
/// `scheme` (static graph), `generator` (seeded graph family) or `trace`
/// is set. Shared by Sweep (which resolves its axis strings up front) and
/// Campaign (which may also take pre-built in-memory workloads, e.g. the
/// network-advisor's MiniMPI-recorded traces).
struct ResolvedWorkload {
  std::string key;  // display name: the axis entry, or a caller-given label
  std::shared_ptr<const graph::CommGraph> scheme;
  std::optional<graph::GeneratorSpec> generator;
  std::shared_ptr<const sim::AppTrace> trace;

  [[nodiscard]] bool is_trace() const { return trace != nullptr; }
};

/// Resolve a scheme axis entry (built-in name, .scheme path or generator
/// spec — the SweepSpec::schemes grammar). Throws bwshare::Error.
[[nodiscard]] ResolvedWorkload resolve_scheme_workload(
    const std::string& entry);

/// Load + validate a trace file. Throws bwshare::Error.
[[nodiscard]] ResolvedWorkload resolve_trace_workload(
    const std::string& entry);

/// Validate `spec`, then resolve its schemes and then its traces, each in
/// listed order. Throws bwshare::Error.
[[nodiscard]] std::vector<ResolvedWorkload> resolve_workloads(
    const SweepSpec& spec);

/// One fully specified grid cell: a workload at a point on every axis.
/// `workload` must outlive the call; `seed` is the cell's only randomness.
struct CellJob {
  const ResolvedWorkload* workload = nullptr;
  topo::NetworkTech tech{};
  std::string model;  // registry name or "network"
  SweepShape shape;
  sim::SchedulingPolicy policy = sim::SchedulingPolicy::kRoundRobinNode;
  double churn = 0.0;
  double background = 0.0;
  uint64_t seed = 0;
};

/// One executed grid cell.
struct SweepCell {
  std::string kind;      // "scheme" | "trace"
  std::string workload;  // the axis entry that produced this cell
  std::string network;   // the CLI axis spelling: "gige" / "myrinet" / "ib"
  std::string model;     // resolved model name
  int nodes = 0;
  int cores = 0;
  std::string policy;    // "-" for scheme cells
  double churn_rate = 0.0;       // 0 for scheme cells
  double background_load = 0.0;  // 0 for scheme cells
  uint64_t seed = 0;
  int units = 0;         // communications (scheme) or tasks (trace)
  double measured_s = 0.0;   // sum of T_m (scheme) / measured makespan
  double predicted_s = 0.0;  // sum of T_p (scheme) / predicted makespan
  double eabs_pct = 0.0;     // E_abs of the cell
  double max_abs_erel_pct = 0.0;  // worst |E_rel| (scheme) / worst task E_abs
  bool ok = false;
  std::string error;     // populated when !ok
};

/// Every cell of `grid` over `workloads`, with seed 0, in the documented
/// order: scheme workloads, then trace workloads, each in listed order x
/// networks x models x shapes [x policies x churn_rates x background_loads,
/// trace cells only]. Sweep runs each cell once per seed, the seed axis
/// innermost; Campaign runs each cell as one arm. The jobs point into
/// `workloads`.
[[nodiscard]] std::vector<CellJob> expand_cells(
    const SweepSpec& grid, std::span<const ResolvedWorkload> workloads);

/// The dynamic-cluster scenario a trace cell replays under: Poisson churn
/// and background scripts at the given rates over a 1 s horizon on `nodes`
/// nodes, drawn from `seed` alone (the generators salt churn and background
/// apart). A zero rate adds no script.
[[nodiscard]] sim::Scenario cell_scenario(double churn, double background,
                                          int nodes, uint64_t seed);

/// Optional instrumentation for run_cell_detailed. The memos (not owned,
/// may be null) are threaded into the trace cell's two replays as
/// EngineConfig::solve_memo — the serving layer's cross-query warm-start
/// hook (sim/solve_memo.hpp). Scheme cells ignore them (compare_scheme is a
/// static solve with no replay).
struct CellHooks {
  sim::SolveMemo* measured_memo = nullptr;
  sim::SolveMemo* predicted_memo = nullptr;
};

/// One executed cell plus the full replay evidence for trace cells: the
/// placement and both SimResults (null for scheme cells and for errored
/// cells).
struct CellOutcome {
  SweepCell cell;
  sim::Placement placement;
  std::shared_ptr<const sim::SimResult> measured;
  std::shared_ptr<const sim::SimResult> predicted;
};

/// Execute one grid cell: the executor behind Sweep, Campaign and serve.
/// Scheme cells run compare_scheme, trace cells
/// compare_application_detailed under the job's policy and cell_scenario.
/// Failures are recorded in the returned cell (ok = false, error message),
/// never thrown; the result depends only on the job, never on execution
/// order or thread count.
[[nodiscard]] CellOutcome run_cell_detailed(const CellJob& job,
                                            const CellHooks& hooks = {});

/// Marginal summary: all ok cells sharing one axis value.
struct SweepMarginal {
  std::string axis;   // "workload", "network", "model", "shape", ...
  std::string value;
  size_t cells = 0;
  double mean_eabs_pct = 0.0;
  double max_eabs_pct = 0.0;
};

struct SweepResult {
  std::vector<SweepCell> cells;      // in job-expansion order
  /// Per axis, one row per value with ok cells, values in the order the
  /// cells first show them: spec order, repeats dropped. Policy, churn and
  /// background rows summarize trace cells only.
  std::vector<SweepMarginal> marginals;
  size_t num_errors = 0;

  /// Per-cell CSV (header in docs/EXPERIMENTS.md). Byte-identical for a
  /// given spec regardless of the thread count it ran with.
  [[nodiscard]] std::string to_csv() const;
  /// {"cells": [...], "marginals": [...]} carrying the same values.
  [[nodiscard]] std::string to_json() const;
};

class Sweep {
 public:
  /// Validates the spec and resolves every static workload (built-ins,
  /// .scheme and trace files) up front; throws bwshare::Error on unknown
  /// names, unreadable files or malformed generator specs.
  explicit Sweep(SweepSpec spec);

  [[nodiscard]] const SweepSpec& spec() const { return spec_; }
  /// The cell count times the seed count.
  [[nodiscard]] size_t num_jobs() const;

  /// Execute the grid on `threads` threads, the calling thread included
  /// (0 = hardware threads; util::parallel_for throws bwshare::Error
  /// outside [0, util::kMaxThreads]). Cell failures are recorded per cell
  /// (ok = false), never thrown.
  [[nodiscard]] SweepResult run(int threads = 1) const;

 private:
  SweepSpec spec_;
  std::vector<ResolvedWorkload> workloads_;
};

}  // namespace bwshare::eval
