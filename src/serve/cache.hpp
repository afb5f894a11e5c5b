// The serving layer's two memo tiers (docs/SERVING.md):
//
//   * ResultCache — whole completed replays, fingerprint -> QueryResult,
//     bounded true-LRU. A hit returns the memoized result object itself
//     (shared_ptr identity, no copy), which is bit-identical to a fresh
//     replay by the determinism contract the conformance suite enforces.
//   * WarmStore — component-level rate solutions published by completed
//     replays, the frozen sim::SolveStore behind cross-query warm-start.
//     Bounded LRU *by commit*: recency moves only when a replay publishes,
//     never on lookup, so concurrent lookups during a batch are plain const
//     reads and response bytes cannot depend on thread scheduling.
//
// Neither container locks: QueryService touches them only from its
// sequential planning/commit phases (service.cpp); during the parallel
// execution phase the WarmStore is frozen and only read through the
// const lookup().
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "eval/sweep.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "sim/solve_memo.hpp"

namespace bwshare::serve {

/// One executed query, as cached and as returned: the sweep-style summary
/// row plus the full replay evidence behind it.
struct QueryResult {
  eval::SweepCell cell;  // summary numbers; ok=false + error on failure
  sim::Placement placement;
  std::shared_ptr<const sim::SimResult> measured;
  std::shared_ptr<const sim::SimResult> predicted;
  uint64_t fingerprint = 0;
  /// serve::hash_sim_result over measured then predicted, combined — the
  /// one-number replay identity the response line carries.
  uint64_t result_hash = 0;
};

/// Bounded LRU of completed replays, keyed by query fingerprint.
/// Capacity 0 = serve-through: nothing is ever stored, every lookup misses.
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  /// Null on miss; a hit returns the stored object and marks it
  /// most-recently-used.
  [[nodiscard]] std::shared_ptr<const QueryResult> lookup(uint64_t fp);

  /// Insert (or refresh) and mark most-recently-used, evicting the
  /// least-recently-used entry when over capacity.
  void insert(uint64_t fp, std::shared_ptr<const QueryResult> result);

  [[nodiscard]] size_t size() const { return map_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t evictions() const { return evictions_; }
  /// Fingerprints, most-recently-used first — the eviction-order pins in
  /// tests/serve/test_fingerprint.cpp read this.
  [[nodiscard]] std::vector<uint64_t> keys_mru_first() const;

 private:
  size_t capacity_;
  // front = most recently used
  std::list<uint64_t> mru_;
  std::unordered_map<
      uint64_t, std::pair<std::list<uint64_t>::iterator,
                          std::shared_ptr<const QueryResult>>>
      map_;
  size_t evictions_ = 0;
};

/// Bounded store of component rate solutions, the frozen tier every
/// replay's sim::SolveMemo reads. Capacity 0 disables warm-start.
class WarmStore final : public sim::SolveStore {
 public:
  explicit WarmStore(size_t capacity) : capacity_(capacity) {}

  /// Const read, safe to call concurrently from executing replays; never
  /// reorders or evicts (see header comment).
  bool lookup(uint64_t key, std::vector<double>& rates) const override;

  /// Publish one replay's staged solutions (sim::SolveMemo::staged(), which
  /// iterates in key order — deterministic). Existing keys refresh their
  /// commit recency; overflow evicts the least-recently-committed entries.
  void commit(const std::map<uint64_t, std::vector<double>>& staged);

  [[nodiscard]] size_t size() const { return map_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] size_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  // front = most recently committed
  std::list<uint64_t> commit_order_;
  std::unordered_map<uint64_t,
                     std::pair<std::list<uint64_t>::iterator,
                               std::vector<double>>>
      map_;
  size_t evictions_ = 0;
};

}  // namespace bwshare::serve
