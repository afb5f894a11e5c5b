// The paper's simulator (§VI-A): replays application traces (compute +
// communication events) on a cluster under a task placement, draining
// in-flight communications at rates given by a RateProvider.
//
// Two providers close the loop of the evaluation (§VI-B):
//   * sim::ModelRateProvider   -> predicted times T_p (the §V models);
//   * flowsim::FluidRateProvider -> "measured" times T_m (the substrate that
//     stands in for the physical clusters).
//
// Semantics:
//   * Blocking MPI_Send with rendezvous for messages of 64 KiB and more:
//     the sender blocks until the transfer drains (plus it unblocks at drain
//     time; the receiver additionally pays the one-way latency).
//   * Shorter messages are buffered (eager): the sender continues
//     immediately; the transfer starts once the receive is posted.
//   * Receives match by source, in posting order; kAnySource matches the
//     earliest posted pending send (the paper's MPI_ANY_SOURCE method).
//   * Barriers release when every task has arrived.
//
// Rate refresh is incremental and component-scoped: a component is a set of
// transfers connected through shared endpoint nodes, and when a transfer
// starts or finishes, only the component(s) it touches are re-solved, while
// untouched components keep their cached rates with lazily advanced byte
// counts. Components are not maintained between events: the engine indexes
// alive transfers by endpoint node, records the nodes each start or
// departure touches, and at the one *flush point*, the top of the event
// loop, searches that index for each touched component and solves it — the
// clock cannot move in
// between, so deferral is unobservable, and it batches all the components a
// same-time event cascade touched into one flush. The event loop itself
// runs on the shared event-core (core::EventQueue): predicted finish times
// and compute wake-ups are indexed heap entries, re-keyed in O(log n) when a
// component re-solve changes a prediction, so finding the next event never
// scans the active set. See docs/PERFORMANCE.md for the invariants and
// bench/engine_scaling.cpp for the measurements; EngineConfig::verify arms
// the oracles that check every one of those shortcuts.
#pragma once

#include <string>
#include <vector>

#include "flowsim/fluid_network.hpp"
#include "sim/events.hpp"
#include "sim/scenario.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"

namespace bwshare::sim {

class SolveMemo;

struct EngineConfig {
  /// Oracle mode for tests and benchmarks: replay exactly as by default
  /// (the result is bit-identical) while re-deriving every shortcut the
  /// engine takes and throwing bwshare::Error on the first divergence:
  ///   * after every flush, the whole active set is re-solved as one
  ///     unrestricted problem and every cached component rate must agree
  ///     to 1e-9 relative;
  ///   * every finish-time queue key must equal its cached prediction;
  ///   * the next wake-up, the next completion and the completing transfer
  ///     are re-derived by linear scans and must match the queues exactly;
  ///   * the wake sweep must wake tasks in the order an ascending-id scan
  ///     over every task would.
  /// Costs O(active set) or more per event.
  bool verify = false;
  /// Cross-query component-solution memo (sim/solve_memo.hpp; not owned,
  /// must outlive the simulation). When set, every component rate solve
  /// first consults the memo — a hit returns the cached bits, which the
  /// provider purity contract guarantees equal a fresh solve — and every
  /// miss stages its solution for the owner to publish. Null (the default)
  /// means solve fresh always; results are bit-identical either way, the
  /// memo only changes how much work a replay does.
  SolveMemo* solve_memo = nullptr;
};

/// One completed communication, as the simulator saw it.
struct CommRecord {
  TaskId src_task = 0;
  TaskId dst_task = 0;
  topo::NodeId src_node = 0;
  topo::NodeId dst_node = 0;
  double bytes = 0.0;
  double send_post = 0.0;   // when the sender entered MPI_Send
  double recv_post = 0.0;   // when the receiver posted the receive
  double start = 0.0;       // when the transfer began draining
  double finish = 0.0;      // when the receiver unblocked
  /// Observed penalty: duration / unconflicted reference duration. For an
  /// aborted record it covers the partial drain only.
  double penalty = 1.0;
  /// An injected background flow (Scenario::background): src_task/dst_task
  /// are -1, no task ever blocked on it.
  bool background = false;
  /// Cut short by a node failure (ChurnKind::kFail): `finish` is the abort
  /// time and the bytes only partially moved.
  bool aborted = false;

  [[nodiscard]] double duration() const { return finish - start; }
  /// Time the *sender* was blocked in MPI_Send (the paper's measured T_i).
  double sender_time = 0.0;
};

struct TaskStats {
  double finish_time = 0.0;
  double compute_seconds = 0.0;
  double send_blocked_seconds = 0.0;  // the paper's per-task S_m / S_p sum
  double recv_blocked_seconds = 0.0;
  double barrier_wait_seconds = 0.0;
  int sends = 0;
  int recvs = 0;
};

struct SimResult {
  double makespan = 0.0;
  std::vector<TaskStats> tasks;
  std::vector<CommRecord> comms;
  /// Transfers cut short by a ChurnKind::kFail (measured job + background).
  size_t aborted_comms = 0;
  /// Background flows admitted into the active set.
  size_t background_comms = 0;
  /// Background flows dropped because an endpoint node was down.
  size_t background_skipped = 0;

  /// Mean observed penalty over the measured job's completed records;
  /// background and aborted records are excluded.
  [[nodiscard]] double average_penalty() const;
  /// Sum of sender-side communication times for one task (the quantity the
  /// paper aggregates per task for the HPL evaluation, §VI-B).
  [[nodiscard]] double task_comm_time(TaskId t) const;
};

/// Exact equality over everything a replay derives: makespan, the scenario
/// counters, and every per-comm / per-task field, compared bit for bit
/// (no epsilon). The predicate behind the engine's verify-equivalence
/// suites and the serving layer's conformance contract (docs/SERVING.md); the
/// gtest twin with per-field diagnostics lives in
/// tests/common/result_expect.hpp.
[[nodiscard]] bool bit_identical(const SimResult& a, const SimResult& b);

/// Run `trace` on `cluster` with tasks placed by `placement`, rates from
/// `provider`. Throws bwshare::Error on deadlock or malformed traces.
[[nodiscard]] SimResult run_simulation(const AppTrace& trace,
                                       const topo::ClusterSpec& cluster,
                                       const Placement& placement,
                                       const flowsim::RateProvider& provider,
                                       const EngineConfig& config = {});

/// Same replay under a dynamic-cluster `scenario` (sim/scenario.hpp):
/// membership churn, background cross-traffic, multi-job barriers. An empty
/// scenario is bit-identical to the overload above.
[[nodiscard]] SimResult run_simulation(const AppTrace& trace,
                                       const topo::ClusterSpec& cluster,
                                       const Placement& placement,
                                       const flowsim::RateProvider& provider,
                                       const Scenario& scenario,
                                       const EngineConfig& config = {});

}  // namespace bwshare::sim
