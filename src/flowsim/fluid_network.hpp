// The fluid "measured" substrate: maps a communication graph onto a
// weighted max-min allocation problem shaped by the interconnect calibration
// (per-stream efficiency, duplex bus, RX weighting) and integrates flow
// completion over time.
//
// This plays the role of the paper's physical clusters: every experiment's
// "measured" times T_m come from here (or from the packet-level simulators
// in flowsim/packet.hpp, which agree with the fluid model within a few
// percent — see bench/abl_fluid_vs_packet).
//
// See docs/PERFORMANCE.md for the locality contract that the incremental
// sim::Engine builds on: the engine hands a provider one component at a
// time, closed under shared endpoint nodes.
#pragma once

#include <span>
#include <vector>

#include "flowsim/fluid.hpp"
#include "graph/comm_graph.hpp"
#include "topo/cluster.hpp"
#include "topo/network.hpp"
#include "util/arena.hpp"

namespace bwshare::flowsim {

/// Instantaneous rate oracle: given the set of concurrently active
/// communications (as a CommGraph over cluster nodes), return each one's
/// transfer rate in bytes/s. Implementations: FluidRateProvider (substrate
/// ground truth) and sim::ModelRateProvider (the paper's predictive models).
///
/// Reentrancy contract: every entry point is const and must be *logically*
/// const — no mutable members, no static or global scratch, no caching.
/// One provider instance is shared by the concurrent replays of a sweep and
/// of the query server, so concurrent calls must behave as if run one after
/// another — which const purity gives for free. The in-tree providers
/// satisfy this by construction (all solver state lives on the calling
/// thread's stack or arena). The purity is also what lets sim::SolveMemo
/// reuse a component's rates across replays bit for bit.
class RateProvider {
 public:
  virtual ~RateProvider() = default;
  [[nodiscard]] virtual std::vector<double> rates(
      const graph::CommGraph& active) const = 0;

  /// Allocation-free entry point for the engine's steady state: rates for the
  /// whole of `active`, written into `out` (size == active.size()), with all
  /// transient solver state drawn from `scratch` (typically the calling
  /// thread's util::Arena::thread_local_instance()). Bit-identical to
  /// rates(active). The base default forwards to rates(active) and copies —
  /// correct for any provider, but it allocates. Both in-tree providers
  /// override it and make rates() the wrapper: FluidRateProvider builds the
  /// max-min problem in the arena, sim::ModelRateProvider evaluates its
  /// model's penalties_into() there. The reentrancy contract above applies
  /// unchanged: the arena is caller-owned per-thread state, not provider
  /// state.
  virtual void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                          std::span<double> out) const;

  /// Rates for `subset` only (returned in subset order), equal to the
  /// corresponding entries of rates(active): the default solves the full
  /// graph and projects. The engine never calls it; it stays virtual so
  /// wrapping providers can forward it.
  [[nodiscard]] virtual std::vector<double> rates(
      const graph::CommGraph& active,
      std::span<const graph::CommId> subset) const;

  /// Nothing calls this, and the default returns no keys. No key relaxes
  /// the locality contract the engine relies on: a communication's rate may
  /// depend only on the communications reachable from it through shared
  /// endpoint nodes, so each such component is solved on its own, and
  /// sim::EngineConfig::verify checks this by re-solving the whole active
  /// set after every flush. The virtual stays only because perfbench's
  /// TracingProvider overrides it; the benchmark change that leaves
  /// RateProvider with rates_into alone deletes it together with
  /// rates(active, subset) (ROADMAP, "Two virtuals on RateProvider").
  [[nodiscard]] virtual std::vector<int> coupling_keys(
      topo::NodeId src, topo::NodeId dst) const;
};

/// Max-min fluid rates under a network calibration: each host's TX and RX
/// links, its duplex bus under heavy bidirectional load, and its
/// shared-memory engine for intra-node copies.
class FluidRateProvider final : public RateProvider {
 public:
  explicit FluidRateProvider(topo::NetworkCalibration cal);

  using RateProvider::rates;
  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override;

  /// Arena-backed full-graph solve: the incidence buckets, member lists,
  /// weights/caps and the max-min solver's own scratch all live in `scratch`;
  /// after arena warm-up a call makes zero global allocations (rates() is a
  /// wrapper over this). Hosts are numbered by one sort of packed endpoint
  /// keys (graph/endpoint_keys.hpp), which also fills each host's member
  /// lists in comm order. Resource construction order replicates
  /// build_problem() exactly (each resource kind in ascending node id), so
  /// results are bitwise equal to max_min_rates(build_problem()).
  void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                  std::span<double> out) const override;

  [[nodiscard]] const topo::NetworkCalibration& calibration() const {
    return cal_;
  }

  /// The constructed allocation problem, built with ordinary containers: an
  /// independent construction that tests pin rates_into() against.
  [[nodiscard]] AllocationProblem build_problem(
      const graph::CommGraph& active) const;

 private:
  topo::NetworkCalibration cal_;
};

/// Fluid measurement under a calibration (the experiments' standard T_m
/// source): run all communications of `graph` starting at t=0 under
/// FluidRateProvider, integrating piecewise-constant rates until each
/// completes. Returns per-comm completion times (graph order), including
/// the calibration's one-way latency.
[[nodiscard]] std::vector<double> measure_scheme_fluid(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal);

/// Per-communication penalties relative to the unconflicted reference time
/// at each comm's size (the paper's P_i = T_i / T_ref definition, §IV-B).
/// Completion-based: comms that outlive their rivals speed up at the end,
/// which dilutes their penalty.
[[nodiscard]] std::vector<double> measure_penalties(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal);

/// Instantaneous penalties while *all* communications of the scheme are in
/// flight: p_i = reference_rate / rate_i. This is the regime the paper's
/// fig-2 numbers describe (every task streams 20 MB simultaneously) and the
/// quantity the §V models predict.
[[nodiscard]] std::vector<double> saturated_penalties(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal);

}  // namespace bwshare::flowsim
