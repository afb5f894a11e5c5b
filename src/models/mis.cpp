#include "models/mis.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bwshare::models {

AdjacencyMatrix::AdjacencyMatrix(int n)
    : n_(n), adj_(static_cast<size_t>(n),
                  std::vector<bool>(static_cast<size_t>(n), false)) {
  BWS_CHECK(n >= 0, "adjacency matrix size must be non-negative");
}

void AdjacencyMatrix::add_edge(int a, int b) {
  BWS_CHECK(a >= 0 && a < n_ && b >= 0 && b < n_, "vertex out of range");
  BWS_CHECK(a != b, "self loops not allowed");
  adj_[static_cast<size_t>(a)][static_cast<size_t>(b)] = true;
  adj_[static_cast<size_t>(b)][static_cast<size_t>(a)] = true;
}

bool AdjacencyMatrix::adjacent(int a, int b) const {
  BWS_CHECK(a >= 0 && a < n_ && b >= 0 && b < n_, "vertex out of range");
  return adj_[static_cast<size_t>(a)][static_cast<size_t>(b)];
}

CompatibilityRows CompatibilityRows::make(int n, util::Arena& arena) {
  BWS_CHECK(n >= 0, "vertex count must be non-negative");
  const size_t words = (static_cast<size_t>(n) + 63) / 64;
  return {n, words, arena.make_span<uint64_t>(static_cast<size_t>(n) * words)};
}

void CompatibilityRows::set_compatible(int a, int b) {
  BWS_ASSERT(a >= 0 && a < n && b >= 0 && b < n && a != b,
             "compatible pair out of range");
  bits[static_cast<size_t>(a) * words + (static_cast<size_t>(b) >> 6)] |=
      1ULL << (b & 63);
  bits[static_cast<size_t>(b) * words + (static_cast<size_t>(a) >> 6)] |=
      1ULL << (a & 63);
}

namespace {

/// Bron–Kerbosch with pivot on the complement graph. Level d of the
/// recursion owns three bit rows (P, X and the candidate snapshot) in one
/// arena block sized for the deepest possible level, so the search itself
/// never allocates.
class Enumerator {
 public:
  Enumerator(const CompatibilityRows& cn, size_t max_sets,
             util::Arena& scratch, MisVisitor& visitor)
      : cn_(cn),
        words_(cn.words),
        max_sets_(max_sets),
        visitor_(visitor),
        levels_(scratch.make_span<uint64_t>(
            3 * words_ * (static_cast<size_t>(cn.n) + 1))),
        current_(scratch.make_span_uninit<int>(static_cast<size_t>(cn.n))) {}

  bool run() {
    if (cn_.n == 0) {  // the empty graph has one (empty) maximal set
      visitor_.visit({});
      return true;
    }
    uint64_t* p = level(0, kP);
    for (int v = 0; v < cn_.n; ++v) p[v >> 6] |= 1ULL << (v & 63);
    expand(0);
    return complete_;
  }

 private:
  enum Row : size_t { kP = 0, kX = 1, kCandidates = 2 };

  uint64_t* level(int depth, Row row) {
    return levels_.data() + (3 * static_cast<size_t>(depth) + row) * words_;
  }
  const uint64_t* compatible(int v) const {
    return cn_.bits.data() + static_cast<size_t>(v) * words_;
  }
  bool empty(const uint64_t* row) const {
    for (size_t w = 0; w < words_; ++w)
      if (row[w]) return false;
    return true;
  }
  template <typename Fn>
  void for_each(const uint64_t* row, Fn&& fn) const {
    for (size_t w = 0; w < words_; ++w) {
      uint64_t word = row[w];
      while (word) {
        fn(static_cast<int>(w * 64) + __builtin_ctzll(word));
        word &= word - 1;
      }
    }
  }

  void expand(int depth) {
    uint64_t* const p = level(depth, kP);
    uint64_t* const x = level(depth, kX);
    if (empty(p) && empty(x)) {
      if (found_ >= max_sets_) {
        complete_ = false;
        return;
      }
      ++found_;
      visitor_.visit(std::span<const int>(current_.data(),
                                          static_cast<size_t>(depth)));
      return;
    }
    // Pivot: vertex of P ∪ X with the most compatible vertices inside P.
    int pivot = -1;
    int best = -1;
    const auto consider = [&](int v) {
      const uint64_t* const row = compatible(v);
      int gain = 0;
      for (size_t w = 0; w < words_; ++w)
        gain += __builtin_popcountll(p[w] & row[w]);
      if (gain > best) {
        best = gain;
        pivot = v;
      }
    };
    for_each(p, consider);
    for_each(x, consider);

    // Candidates: P minus the pivot's compatible set, snapshotted before
    // the loop mutates P.
    uint64_t* const candidates = level(depth, kCandidates);
    const uint64_t* const pivot_row = compatible(pivot);
    for (size_t w = 0; w < words_; ++w) candidates[w] = p[w] & ~pivot_row[w];

    for (size_t cw = 0; cw < words_; ++cw) {
      uint64_t word = candidates[cw];
      while (word) {
        const int v = static_cast<int>(cw * 64) + __builtin_ctzll(word);
        word &= word - 1;
        const uint64_t* const row = compatible(v);
        uint64_t* const next_p = level(depth + 1, kP);
        uint64_t* const next_x = level(depth + 1, kX);
        for (size_t w = 0; w < words_; ++w) {
          next_p[w] = p[w] & row[w];
          next_x[w] = x[w] & row[w];
        }
        current_[static_cast<size_t>(depth)] = v;
        expand(depth + 1);
        if (!complete_) return;
        p[v >> 6] &= ~(1ULL << (v & 63));
        x[v >> 6] |= 1ULL << (v & 63);
      }
    }
  }

  const CompatibilityRows& cn_;
  size_t words_;
  size_t max_sets_;
  MisVisitor& visitor_;
  std::span<uint64_t> levels_;  // (n + 1) levels x {P, X, candidates}
  std::span<int> current_;      // the set under construction
  size_t found_ = 0;
  bool complete_ = true;
};

}  // namespace

bool for_each_maximal_independent_set(const CompatibilityRows& compatible,
                                      size_t max_sets, util::Arena& scratch,
                                      MisVisitor& visitor) {
  BWS_CHECK(max_sets > 0, "max_sets must be positive");
  util::Arena::Frame frame(scratch);
  return Enumerator(compatible, max_sets, scratch, visitor).run();
}

MisResult enumerate_maximal_independent_sets(const AdjacencyMatrix& graph,
                                             size_t max_sets) {
  BWS_CHECK(max_sets > 0, "max_sets must be positive");
  util::Arena& scratch = util::Arena::thread_local_instance();
  util::Arena::Frame frame(scratch);
  auto rows = CompatibilityRows::make(graph.size(), scratch);
  for (int v = 0; v < graph.size(); ++v)
    for (int w = v + 1; w < graph.size(); ++w)
      if (!graph.adjacent(v, w)) rows.set_compatible(v, w);

  struct Collect final : MisVisitor {
    MisResult result;
    void visit(std::span<const int> set) override {
      std::vector<int> sorted(set.begin(), set.end());
      std::sort(sorted.begin(), sorted.end());
      result.sets.push_back(std::move(sorted));
    }
  } collect;
  collect.result.complete =
      for_each_maximal_independent_set(rows, max_sets, scratch, collect);
  std::sort(collect.result.sets.begin(), collect.result.sets.end());
  return std::move(collect.result);
}

std::vector<uint64_t> emission_counts(const MisResult& result,
                                      int num_vertices) {
  std::vector<uint64_t> counts(static_cast<size_t>(num_vertices), 0);
  for (const auto& set : result.sets)
    for (int v : set) {
      BWS_CHECK(v >= 0 && v < num_vertices, "vertex out of range in MIS");
      ++counts[static_cast<size_t>(v)];
    }
  return counts;
}

}  // namespace bwshare::models
