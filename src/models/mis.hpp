// Maximal-independent-set enumeration over conflict graphs.
//
// Reproduces: the feasible send-set enumeration behind the paper's Fig. 5/6
// Myrinet state tables (§V-B); the MyrinetModel's emission coefficients are
// counts over the sets enumerated here. See docs/MODELS.md §"Myrinet 2000".
//
// The Myrinet model (paper §V-B) considers every feasible combination of
// communication states where a communication is either "send" or "wait",
// under the rule: a sending communication forces every conflicting
// communication (same source node or same destination node) to wait, and no
// communication waits needlessly. The feasible "send" sets are therefore
// exactly the *maximal independent sets* of the conflict graph.
//
// Enumeration is Bron–Kerbosch with pivoting on the complement graph
// (maximal independent sets of G = maximal cliques of G̅), over packed
// bitsets held in a util::Arena. There is one enumerator,
// for_each_maximal_independent_set(), which hands each set to a visitor:
// enumerate_maximal_independent_sets() collects them, MyrinetModel counts
// them without storing any. Components are enumerated independently by the
// caller (state-set counts multiply across components).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/arena.hpp"

namespace bwshare::models {

/// Dense undirected adjacency used by enumerate_maximal_independent_sets.
class AdjacencyMatrix {
 public:
  explicit AdjacencyMatrix(int n);

  void add_edge(int a, int b);
  [[nodiscard]] bool adjacent(int a, int b) const;
  [[nodiscard]] int size() const { return n_; }

 private:
  int n_;
  std::vector<std::vector<bool>> adj_;
};

/// The complement of an n-vertex graph as packed bit rows: bit w of row v
/// is set iff v != w and v, w are not adjacent (they may be in one
/// independent set). Row v is bits[v * words, (v + 1) * words).
struct CompatibilityRows {
  int n = 0;
  size_t words = 0;
  std::span<uint64_t> bits;

  /// n rows with no compatible pair, allocated in `arena`.
  static CompatibilityRows make(int n, util::Arena& arena);
  /// Mark distinct vertices a and b compatible (sets both rows).
  void set_compatible(int a, int b);
};

/// Receives each maximal independent set as the enumerator finds it. `set`
/// lists vertices in the order they were added (not sorted) and is only
/// valid during the call.
class MisVisitor {
 public:
  virtual void visit(std::span<const int> set) = 0;
};

/// Bron–Kerbosch with pivoting: visits every maximal independent set, or
/// the first `max_sets` of them in enumeration order. Returns false if it
/// stopped at the cap. The order is fixed by the pivot rule (the vertex of
/// P ∪ X with the most compatible vertices in P, lowest id on ties, P
/// scanned before X) and ascending candidate order. All scratch comes from
/// `scratch` and is released before return.
bool for_each_maximal_independent_set(const CompatibilityRows& compatible,
                                      size_t max_sets, util::Arena& scratch,
                                      MisVisitor& visitor);

struct MisResult {
  /// Each entry is a maximal independent set (sorted vertex lists).
  std::vector<std::vector<int>> sets;
  /// False if enumeration stopped early at `max_sets`.
  bool complete = true;
};

/// Enumerate all maximal independent sets of the graph, stopping after
/// `max_sets` (a safety valve; paper-scale graphs produce a handful).
/// Collects for_each_maximal_independent_set()'s sets, sorted.
[[nodiscard]] MisResult enumerate_maximal_independent_sets(
    const AdjacencyMatrix& graph, size_t max_sets = 1u << 20);

/// Number of maximal independent sets containing each vertex
/// ("emission coefficients" before the per-node minimum of §V-B).
[[nodiscard]] std::vector<uint64_t> emission_counts(const MisResult& result,
                                                    int num_vertices);

}  // namespace bwshare::models
