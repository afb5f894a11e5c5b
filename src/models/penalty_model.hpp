// The predictive-model interface (paper §V).
//
// Reproduces: the §IV-B penalty definition p_i = T_i / T_ref that every
// figure of the paper is phrased in; concrete models (gige.hpp §V-A,
// myrinet.hpp §V-B, infiniband.hpp, baselines.hpp §II) implement it.
// Per-model equations, parameters, evaluation costs and CLI invocations:
// docs/MODELS.md.
//
// A penalty model looks at a communication graph — the set of point-to-point
// communications that are in flight at the same time — and assigns each
// communication a penalty p >= 1: the factor by which bandwidth sharing
// inflates its completion time relative to an unconflicted transfer
// (paper §IV-B: p_i = T_i / T_ref).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/comm_graph.hpp"
#include "util/arena.hpp"

namespace bwshare::models {

class PenaltyModel {
 public:
  virtual ~PenaltyModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// The one evaluation entry point: the penalty of every communication of
  /// `graph`, written into `out` (size == graph.size(), same order as
  /// graph.comms()). Intra-node communications always get 1.0. All
  /// transient state is drawn from `scratch` and released before return, so
  /// a call on a warmed arena makes no global allocation. Implementations
  /// keep no state between calls: sim::ModelRateProvider's reentrancy (the
  /// flowsim::RateProvider contract) rests on it.
  virtual void penalties_into(const graph::CommGraph& graph,
                              util::Arena& scratch,
                              std::span<double> out) const = 0;

  /// Allocating convenience wrapper over penalties_into() on the calling
  /// thread's arena.
  [[nodiscard]] std::vector<double> penalties(
      const graph::CommGraph& graph) const;
};

using PenaltyModelPtr = std::unique_ptr<PenaltyModel>;

}  // namespace bwshare::models
