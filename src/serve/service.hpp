// serve::QueryService — the prediction-as-a-service core (docs/SERVING.md).
//
// A long-lived service answering measured-vs-predicted replay queries
// without paying a cold start per request:
//
//   * completed replays land in a bounded LRU ResultCache keyed by the
//     query fingerprint; a repeat returns the memoized QueryResult object
//     verbatim;
//   * distinct queries in one batch fan out through util::parallel_for
//     into eval::run_cell_detailed; identical queries in one batch coalesce
//     onto a single replay (single-flight);
//   * every replay's component rate solves are memoized into a WarmStore,
//     so a later query whose comm set differs by a small edit set re-seeds
//     from the cached component solutions and only the dirty components are
//     solved fresh (sim/solve_memo.hpp) — the PR 3 incremental machinery
//     aimed across queries.
//
// Determinism contract: every served answer — cold, cached, warm-started or
// coalesced — is bit-identical to a fresh sim::run_simulation of the same
// canonical query, and the response sequence for a given query sequence is
// identical at any thread count. The latter holds because every decision
// that shapes a response happens in the sequential phases: fingerprints,
// cache lookups and coalescing are planned in request order before any
// replay starts; the WarmStore is frozen while the replays run (they stage
// privately); results commit in job-creation order afterwards. The parallel
// phase only computes values the engine contract pins bit-for-bit.
// ServiceConfig::verify turns the contract into a runtime oracle: every
// memo hit is re-solved and compared bitwise, and every replay that touched
// the WarmStore is re-run fully cold and compared bitwise.
//
// Thread safety: the whole service is serialized on one mutex — concurrent
// callers enqueue batches, they never interleave inside one. Parallelism
// lives *inside* a batch (one parallel_for over its distinct replays),
// which is also what makes concurrent duplicate queries collapse to one
// replay: the first batch executes, the second finds the cache line.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/fingerprint.hpp"

namespace bwshare::serve {

struct ServiceConfig {
  /// Completed replays the ResultCache retains (0 = serve-through).
  size_t cache_capacity = 64;
  /// Component solutions the WarmStore retains (0 = no warm-start).
  size_t memo_capacity = 65536;
  /// Threads for a batch's distinct replays, the calling thread included
  /// (0 = hardware threads); in [0, util::kMaxThreads].
  int threads = 0;
  /// Oracle mode: bitwise re-verify every memo hit and cold-re-run every
  /// warm replay. Expensive; for tests and smoke scripts.
  bool verify = false;
};

/// How a response was produced. kCold/kWarm label the request that ran the
/// replay (warm = at least one component solve was answered by the
/// WarmStore); kCoalesced labels batch-mates that shared that replay;
/// kCache labels answers from the ResultCache; kError carries no result.
enum class Source { kError, kCold, kWarm, kCache, kCoalesced };

[[nodiscard]] std::string to_string(Source source);

struct Response {
  std::string id;  // echoed from the query
  bool ok = false;
  std::string error;  // set when !ok
  Source source = Source::kError;
  uint64_t fingerprint = 0;
  /// Shared with the cache: a kCache response aliases the object the
  /// original replay produced (pointer-identical, never copied).
  std::shared_ptr<const QueryResult> result;
};

/// Monotonic counters. Deterministic for a given query sequence: every
/// count is taken in the sequential phases, and the per-replay solver
/// tallies are pinned by the engine's bit-identical contract.
struct ServiceStats {
  uint64_t queries = 0;
  uint64_t errors = 0;
  uint64_t replays = 0;        // jobs actually executed
  uint64_t cache_hits = 0;
  uint64_t coalesced = 0;
  uint64_t warm_replays = 0;   // replays with >= 1 WarmStore hit
  uint64_t solve_hits = 0;     // component solves answered by the WarmStore
  uint64_t solve_misses = 0;   // component solves done fresh
  uint64_t result_evictions = 0;
  uint64_t solve_evictions = 0;
  uint64_t cached_results = 0;   // current ResultCache size
  uint64_t stored_solutions = 0; // current WarmStore size
};

class QueryService {
 public:
  /// Throws bwshare::Error if `config.threads` is outside
  /// [0, util::kMaxThreads].
  explicit QueryService(ServiceConfig config = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

  /// One query == a batch of one.
  Response query(const Query& q);

  /// Serve a batch: plan sequentially in request order, execute distinct
  /// misses in parallel, commit in order. Responses align with `queries`
  /// by index. Malformed queries and failed replays yield ok=false
  /// responses; nothing is thrown for per-query trouble.
  std::vector<Response> query_batch(const std::vector<Query>& queries);

  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Job;

  ServiceConfig cfg_;
  mutable std::mutex mu_;
  ResultCache results_;
  WarmStore solves_;
  ServiceStats stats_;
};

}  // namespace bwshare::serve
