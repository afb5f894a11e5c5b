// Conflict analysis (paper §IV-A and §V).
//
// Elementary conflicts seen by one communication (paper Fig. 1):
//   - outgoing  C<-X->  : shares its source with other outgoing comms
//   - income    C->X<-  : shares its destination with other incoming comms
//   - income/outgo      : its source also receives, or its destination also
//                         sends (full-duplex host interaction)
//
// The Myrinet model's state enumeration uses the *conflict graph*: two
// communications conflict iff they have the same source node or the same
// destination node (§V-B rule).
//
// components() also underpins the incremental simulator: rates factorize
// over connected components, so sim::Engine re-solves only the components
// an event touches. Reference entry: docs/PERFORMANCE.md §"Invariants".
#pragma once

#include <string>
#include <vector>

#include "graph/comm_graph.hpp"

namespace bwshare::graph {

enum class ConflictKind {
  kNone,
  kOutgoing,       // C<-X->
  kIncome,         // C->X<-
  kIncomeOutgo,    // C->X-> or C<-X<-
  kMixed,          // several of the above at once
};

[[nodiscard]] std::string to_string(ConflictKind kind);

/// Elementary conflicts a single communication participates in.
struct CommConflicts {
  bool outgoing = false;
  bool income = false;
  bool income_outgo = false;

  [[nodiscard]] ConflictKind dominant() const;
  [[nodiscard]] bool any() const { return outgoing || income || income_outgo; }
};

/// Classify every communication of the graph (intra-node comms never
/// conflict on the network).
[[nodiscard]] std::vector<CommConflicts> classify_conflicts(
    const CommGraph& graph);

/// Undirected conflict-graph adjacency: adj[i][j] == true iff comms i and j
/// share their source node or their destination node (paper §V-B).
/// Intra-node comms conflict with nothing.
class ConflictGraph {
 public:
  explicit ConflictGraph(const CommGraph& graph);

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] bool conflicts(CommId a, CommId b) const;
  [[nodiscard]] const std::vector<bool>& row(CommId a) const;
  [[nodiscard]] int degree(CommId a) const;

  /// Connected components of the conflict graph (each component's state
  /// space factorizes, which the Myrinet model exploits).
  [[nodiscard]] std::vector<std::vector<CommId>> components() const;

 private:
  int n_ = 0;
  std::vector<std::vector<bool>> adj_;
};

/// The strongly-slow sets of the Gigabit Ethernet model (Definition 1).
///
/// Cm_o(i): communications leaving src(i) whose destination in-degree is the
/// maximum over that set — the "strongly slow outgoing" communications.
/// Cm_i(i): communications entering dst(i) whose source out-degree is the
/// maximum over that set.
struct StronglySlowSets {
  std::vector<CommId> cm_o;
  std::vector<CommId> cm_i;
  bool in_cm_o = false;  // whether the query comm belongs to Cm_o
  bool in_cm_i = false;
};

[[nodiscard]] StronglySlowSets strongly_slow_sets(const CommGraph& graph,
                                                  CommId id);

}  // namespace bwshare::graph
