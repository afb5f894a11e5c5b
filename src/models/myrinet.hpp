// Myrinet 2000 congestion model (paper §V-B).
//
// Reproduces: Fig. 2 column 2 (measured Myrinet penalties), the Fig. 5/6
// send/wait state enumeration, and feeds the Fig. 9 HPL-on-Myrinet
// prediction. Reference entry: docs/MODELS.md §"Myrinet 2000".
//
// A descriptive model built on the NIC's Stop & Go flow control: at any
// moment each communication is either sending or waiting, and a sending
// communication silences every communication that shares its source node or
// its destination node. The feasible send-sets are the maximal independent
// sets of the conflict graph (see models/mis.hpp).
//
// From the enumeration (paper Fig 5/6):
//   * emission coefficient of c  = number of state sets where c sends;
//   * per source node, every outgoing communication is clamped to the
//     *minimum* emission coefficient among that node's outgoing
//     communications (the NIC shares the card fairly, so everyone moves at
//     the slowest sibling's pace);
//   * penalty(c) = (#state sets) / (clamped emission coefficient).
//
// State-set counts multiply across connected components of the conflict
// graph, and the penalty ratio only depends on the communication's own
// component, so enumeration is done per component.
//
// penalties_into() finds the components by union-find over shared
// endpoints and counts each component's sets without storing them;
// analyze() is the independent reference it is pinned to (dense
// graph::ConflictGraph, materialized sets, global emission scaling).
#pragma once

#include <cstdint>

#include "graph/conflict.hpp"
#include "models/mis.hpp"
#include "models/penalty_model.hpp"

namespace bwshare::models {

struct MyrinetParams {
  /// State-set budget per conflict component. penalties_into() throws
  /// bwshare::Error when a component has more sets; analyze() stops there
  /// and reports `complete = false`.
  size_t max_state_sets = 1u << 20;
};

class MyrinetModel final : public PenaltyModel {
 public:
  explicit MyrinetModel(MyrinetParams params = {});

  [[nodiscard]] std::string name() const override;

  /// Near-linear outside the enumeration: O(k log k) for the node table
  /// and union-find over shared endpoints, then per component of s
  /// communications O(s²) pair checks for the complement rows plus the
  /// Bron–Kerbosch search. Singleton components cost O(1). Throws
  /// bwshare::Error, naming the component size and the budget, when a
  /// component has more than `max_state_sets` state sets.
  void penalties_into(const graph::CommGraph& graph, util::Arena& scratch,
                      std::span<double> out) const override;

  /// Full analysis exposed for tests and the fig-5/6 bench.
  struct Analysis {
    /// Global number of state sets (product over components).
    uint64_t num_state_sets = 1;
    /// Emission coefficient per comm, scaled to the *global* set count
    /// (as the paper's fig 6 "Sum" row reports).
    std::vector<uint64_t> emission;
    /// After the per-source-node minimum (fig 6 "Minimum" row).
    std::vector<uint64_t> min_emission;
    std::vector<double> penalty;
    /// The explicit global state sets; only filled by analyze() when
    /// `materialize_sets` and the graph is small (fig-5 style displays).
    std::vector<std::vector<graph::CommId>> state_sets;
    /// False when a component's enumeration stopped at max_state_sets or
    /// the global set count saturated.
    bool complete = true;
  };

  [[nodiscard]] Analysis analyze(const graph::CommGraph& graph,
                                 bool materialize_sets = false) const;

 private:
  MyrinetParams params_;
};

}  // namespace bwshare::models
