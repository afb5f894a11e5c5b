// serve query canonicalization + fingerprint stability pins, and the LRU
// pins for the two serving memo tiers (ResultCache, WarmStore).
//
// The fingerprint contract under test: queries that mean the same replay
// hash the same regardless of spelling (builtin scheme name vs .scheme path
// vs inline DSL text, "network" vs the explicit model name, renamed labels,
// inert seeds), and every semantic change — one byte more, one node
// elsewhere, a different axis value — hashes differently.
#include "serve/fingerprint.hpp"

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/scheme_text.hpp"
#include "graph/generator.hpp"
#include "graph/scheme_parser.hpp"
#include "graph/schemes.hpp"
#include "serve/cache.hpp"
#include "sim/engine.hpp"
#include "sim/events.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"

namespace bwshare::serve {
namespace {

const char* const kSchemeText =
    "scheme \"pin\"\n"
    "nodes 6\n"
    "comm a 0 -> 1 size 4MiB\n"
    "comm b 2 -> 3 size 4MiB\n"
    "comm c 4 -> 5 size 2MiB\n";

Query base_query() {
  Query q;
  q.id = "base";
  q.scheme_text = kSchemeText;
  return q;
}

uint64_t fp(const Query& q) { return canonicalize(q).fingerprint; }

TEST(Fingerprint, IsDeterministic) {
  EXPECT_EQ(fp(base_query()), fp(base_query()));
}

TEST(Fingerprint, IdIsExcluded) {
  Query other = base_query();
  other.id = "a completely different correlation tag";
  EXPECT_EQ(fp(base_query()), fp(other));
}

TEST(Fingerprint, SchemeNameAndLabelsAreDisplayOnly) {
  Query renamed = base_query();
  renamed.scheme_text =
      "scheme \"entirely-different-name\"\n"
      "nodes 6\n"
      "comm x 0 -> 1 size 4MiB\n"
      "comm y 2 -> 3 size 4MiB\n"
      "comm z 4 -> 5 size 2MiB\n";
  EXPECT_EQ(fp(base_query()), fp(renamed));
}

TEST(Fingerprint, BuiltinPathAndInlineSpellingsAgree) {
  // Three spellings of the paper's Fig. 2 S4 scheme: the builtin name, the
  // data/ file, and inline DSL text (all at the 20 MB referential size).
  Query builtin;
  builtin.scheme = "fig2_s4";
  Query file;
  file.scheme = std::string(BWSHARE_SOURCE_DIR) + "/data/fig2_s4.scheme";
  Query inline_text;
  inline_text.scheme_text =
      "scheme \"whatever\"\n"
      "nodes 5\n"
      "comm p 0 -> 1\n"
      "comm q 0 -> 2\n"
      "comm r 0 -> 3\n"
      "comm s 4 -> 1\n";
  EXPECT_EQ(fp(builtin), fp(file));
  EXPECT_EQ(fp(builtin), fp(inline_text));
}

TEST(Fingerprint, TracePathAndInlineTextAgree) {
  const std::string path =
      std::string(BWSHARE_SOURCE_DIR) + "/data/ring8.trace";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();

  Query by_path;
  by_path.trace = path;
  Query by_text;
  by_text.trace_text = text.str();
  EXPECT_EQ(fp(by_path), fp(by_text));
}

TEST(Fingerprint, NetworkModelAliasResolvesBeforeHashing) {
  Query implicit = base_query();  // model defaults to "network"
  Query explicit_name = base_query();
  explicit_name.model = "gige";  // gige's own model, spelled out
  EXPECT_EQ(fp(implicit), fp(explicit_name));

  Query other_model = base_query();
  other_model.model = "loggp";
  EXPECT_NE(fp(implicit), fp(other_model));
}

TEST(Fingerprint, SeedIsCanonicalizedAwayWhenInert) {
  // RRN placement, no churn, no background, static scheme: nothing draws
  // from the seed, so it must not split the cache line.
  Query a = base_query();
  a.seed = 7;
  Query b = base_query();
  b.seed = 9;
  EXPECT_EQ(fp(a), fp(b));
  EXPECT_FALSE(canonicalize(a).seed_live);

  // Random placement revives it.
  a.schedule = "Random";
  b.schedule = "Random";
  EXPECT_NE(fp(a), fp(b));
  EXPECT_TRUE(canonicalize(a).seed_live);

  // So does a dynamic-cluster scenario.
  Query c = base_query();
  c.churn = 2.0;
  c.seed = 7;
  Query d = c;
  d.seed = 9;
  EXPECT_NE(fp(c), fp(d));
}

TEST(Fingerprint, EverySemanticAxisChangesTheHash) {
  const uint64_t base = fp(base_query());

  Query bytes = base_query();
  bytes.scheme_text =
      "scheme \"pin\"\n"
      "nodes 6\n"
      "comm a 0 -> 1 size 4MiB\n"
      "comm b 2 -> 3 size 4MiB\n"
      "comm c 4 -> 5 size 2097153\n";  // one byte more than 2MiB
  EXPECT_NE(base, fp(bytes));

  Query endpoint = base_query();
  endpoint.scheme_text =
      "scheme \"pin\"\n"
      "nodes 6\n"
      "comm a 0 -> 1 size 4MiB\n"
      "comm b 2 -> 3 size 4MiB\n"
      "comm c 4 -> 0 size 2MiB\n";  // same size, different receiver
  EXPECT_NE(base, fp(endpoint));

  Query network = base_query();
  network.network = "myrinet";
  EXPECT_NE(base, fp(network));

  Query nodes = base_query();
  nodes.nodes = 17;
  EXPECT_NE(base, fp(nodes));

  Query cores = base_query();
  cores.cores = 4;
  EXPECT_NE(base, fp(cores));

  Query schedule = base_query();
  schedule.schedule = "RRP";
  EXPECT_NE(base, fp(schedule));

  Query churn = base_query();
  churn.churn = 1.0;
  EXPECT_NE(base, fp(churn));

  Query background = base_query();
  background.background = 3.0;
  EXPECT_NE(base, fp(background));
}

TEST(Fingerprint, ClusterGrowsToFitTheScheme) {
  // A cluster too small for the scheme is grown during canonicalization
  // (mirroring eval::run_cell), so "nodes 4" and "nodes 6" mean the same
  // replay for a 6-node scheme.
  Query small = base_query();
  small.nodes = 4;
  Query grown = base_query();
  grown.nodes = 6;
  EXPECT_EQ(fp(small), fp(grown));
  EXPECT_EQ(canonicalize(small).nodes, 6);
}

TEST(Fingerprint, MalformedQueriesThrow) {
  Query none;
  EXPECT_THROW(static_cast<void>(canonicalize(none)), Error);

  Query both = base_query();
  both.trace = "also/a.trace";
  EXPECT_THROW(static_cast<void>(canonicalize(both)), Error);

  Query bad_nodes = base_query();
  bad_nodes.nodes = 0;
  EXPECT_THROW(static_cast<void>(canonicalize(bad_nodes)), Error);

  Query bad_network = base_query();
  bad_network.network = "token-ring";
  EXPECT_THROW(static_cast<void>(canonicalize(bad_network)), Error);

  Query bad_model = base_query();
  bad_model.model = "oracle";
  EXPECT_THROW(static_cast<void>(canonicalize(bad_model)), Error);

  Query bad_churn = base_query();
  bad_churn.churn = -1.0;
  EXPECT_THROW(static_cast<void>(canonicalize(bad_churn)), Error);

  Query empty_scheme;
  empty_scheme.scheme_text = "scheme \"hollow\"\nnodes 3\n";
  EXPECT_THROW(static_cast<void>(canonicalize(empty_scheme)), Error);
}

TEST(Fingerprint, GeneratorSpecAndItsInlineTextShareAFingerprint) {
  // A scheme is fingerprinted by its graph content, so the spec expanded
  // with the query's seed and the same graph spelled inline are one cache
  // line (the inline query's own seed is inert).
  for (const char* text : {"random:nodes=256,comms=160,spread=1",
                           "ring:nodes=12,bytes=3M,spread=1",
                           "hotspot:nodes=9", "alltoall:nodes=5,spread=2"}) {
    Query spec;
    spec.scheme = text;
    spec.seed = 1009;
    Query inline_text;
    inline_text.scheme_text = graph::scheme_text_17_digits(
        graph::generate_scheme(graph::parse_generator_spec(text), 1009));
    EXPECT_EQ(fp(spec), fp(inline_text)) << text;
    Query other_seed = spec;
    other_seed.seed = 1010;
    EXPECT_NE(fp(spec), fp(other_seed)) << text;
  }
  // The expansion is hashed, not the seed: a ring of uniform sizes is the
  // same graph at every seed.
  Query ring;
  ring.scheme = "ring:nodes=12";
  ring.seed = 1;
  Query ring_other_seed = ring;
  ring_other_seed.seed = 2;
  EXPECT_EQ(fp(ring), fp(ring_other_seed));
}

TEST(Fingerprint, SchemeAndItsLiftedTraceTextAreTwoCacheLines) {
  // The decision pinned here: a scheme hashes its graph and a trace its
  // events, so a scheme and the text of its lifted trace are two cache
  // lines. They replay the same trace (QueryService.
  // SchemeAndItsLiftedTraceTextGiveTheSameResult).
  const Query scheme = base_query();
  Query lifted;
  lifted.trace_text = sim::write_trace(sim::trace_from_scheme(
      graph::parse_scheme(kSchemeText).graph));
  const CanonicalQuery a = canonicalize(scheme);
  const CanonicalQuery b = canonicalize(lifted);
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_EQ(sim::write_trace(*a.workload.trace),
            sim::write_trace(*b.workload.trace));
  EXPECT_EQ(a.nodes, b.nodes);
}

TEST(Fingerprint, PlanningLiftsNoSchemeAndLiftingKeepsTheFingerprint) {
  Query builtin;
  builtin.scheme = "fig2_s4";
  Query file;
  file.scheme = std::string(BWSHARE_SOURCE_DIR) + "/data/mixed_sizes.scheme";
  Query generated;
  generated.scheme = "random:nodes=10,comms=18,spread=1";
  for (const Query& q : {builtin, file, generated, base_query()}) {
    CanonicalQuery cq = plan_query(q);
    ASSERT_NE(cq.scheme, nullptr);
    EXPECT_FALSE(cq.workload.is_trace());
    const uint64_t planned = cq.fingerprint;
    lift_query(cq);
    ASSERT_TRUE(cq.workload.is_trace());
    EXPECT_EQ(sim::write_trace(*cq.workload.trace),
              sim::write_trace(sim::trace_from_scheme(*cq.scheme)));
    EXPECT_EQ(cq.fingerprint, planned);
    EXPECT_EQ(canonicalize(q).fingerprint, planned);
  }
  // A trace query has its trace, and no graph, from planning.
  Query trace;
  trace.trace = std::string(BWSHARE_SOURCE_DIR) + "/data/ring8.trace";
  const CanonicalQuery cq = plan_query(trace);
  EXPECT_EQ(cq.scheme, nullptr);
  EXPECT_TRUE(cq.workload.is_trace());
}

TEST(Fingerprint, CanonicalizeReturnsALiftedTraceForEveryWorkloadKind) {
  const std::string dir = std::string(BWSHARE_SOURCE_DIR) + "/data/";
  std::vector<Query> queries(6);
  queries[0].scheme = "mk1";
  queries[1].scheme = dir + "fig5_myrinet.scheme";
  queries[2].scheme = "hotspot:nodes=9,bytes=2M";
  queries[3].scheme_text = kSchemeText;
  queries[4].trace = dir + "ring8.trace";
  queries[5].trace_text = "tasks 2\n0 send 1 4000000\n1 recv 0 4000000\n";
  for (const Query& q : queries) {
    const CanonicalQuery cq = canonicalize(q);
    ASSERT_TRUE(cq.workload.is_trace());
    EXPECT_GT(cq.workload.trace->num_tasks(), 0);
    if (cq.scheme) {
      EXPECT_EQ(cq.workload.trace->num_tasks(), cq.scheme->num_nodes());
    }
  }
  EXPECT_EQ(canonicalize(queries[0]).workload.trace->total_sends(),
            static_cast<size_t>(graph::schemes::mk1_tree().size()));
}

TEST(HashSimResult, TracksEveryField) {
  sim::SimResult r;
  r.makespan = 1.5;
  sim::CommRecord c{};
  c.src_task = 0;
  c.dst_task = 1;
  c.bytes = 4e6;
  c.finish = 1.5;
  r.comms.push_back(c);
  sim::TaskStats t{};
  t.finish_time = 1.5;
  r.tasks.push_back(t);

  const uint64_t base = hash_sim_result(r);
  EXPECT_EQ(base, hash_sim_result(r));  // deterministic

  sim::SimResult changed = r;
  changed.comms[0].finish = std::nextafter(1.5, 2.0);
  EXPECT_NE(base, hash_sim_result(changed));

  changed = r;
  changed.tasks[0].recvs = 1;
  EXPECT_NE(base, hash_sim_result(changed));

  changed = r;
  changed.background_skipped = 1;
  EXPECT_NE(base, hash_sim_result(changed));
}

// ---------------------------------------------------------------------------
// ResultCache LRU pins.

std::shared_ptr<const QueryResult> dummy_result(uint64_t fingerprint) {
  auto r = std::make_shared<QueryResult>();
  r->fingerprint = fingerprint;
  return r;
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert(1, dummy_result(1));
  cache.insert(2, dummy_result(2));
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.lookup(1), nullptr);
  cache.insert(3, dummy_result(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.lookup(2), nullptr);
  EXPECT_NE(cache.lookup(1), nullptr);
  EXPECT_NE(cache.lookup(3), nullptr);
}

TEST(ResultCache, KeysMruFirstReflectsTouchOrder) {
  ResultCache cache(3);
  cache.insert(10, dummy_result(10));
  cache.insert(20, dummy_result(20));
  cache.insert(30, dummy_result(30));
  EXPECT_EQ(cache.keys_mru_first(), (std::vector<uint64_t>{30, 20, 10}));
  EXPECT_NE(cache.lookup(10), nullptr);
  EXPECT_EQ(cache.keys_mru_first(), (std::vector<uint64_t>{10, 30, 20}));
  cache.insert(20, dummy_result(20));  // refresh moves to front
  EXPECT_EQ(cache.keys_mru_first(), (std::vector<uint64_t>{20, 10, 30}));
}

TEST(ResultCache, HitReturnsTheStoredObject) {
  ResultCache cache(2);
  const auto stored = dummy_result(5);
  cache.insert(5, stored);
  EXPECT_EQ(cache.lookup(5).get(), stored.get());  // identity, not a copy
}

TEST(ResultCache, CapacityZeroServesThrough) {
  ResultCache cache(0);
  cache.insert(1, dummy_result(1));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(1), nullptr);
  EXPECT_EQ(cache.evictions(), 0u);
}

// ---------------------------------------------------------------------------
// WarmStore pins: LRU by commit, lookups never reorder.

TEST(WarmStore, LookupsDoNotChangeEvictionOrder) {
  WarmStore store(2);
  store.commit({{1, {1.0}}, {2, {2.0}}});
  // Read key 1 many times; commit recency must be untouched, so 1 is still
  // the first victim.
  std::vector<double> rates;
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(store.lookup(1, rates));
  store.commit({{3, {3.0}}});
  EXPECT_FALSE(store.lookup(1, rates));
  EXPECT_TRUE(store.lookup(2, rates));
  EXPECT_EQ(rates, (std::vector<double>{2.0}));
  EXPECT_TRUE(store.lookup(3, rates));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(WarmStore, RecommitRefreshesRecency) {
  WarmStore store(2);
  store.commit({{1, {1.0}}});
  store.commit({{2, {2.0}}});
  store.commit({{1, {1.0}}});  // same key, same bits: recency refresh
  store.commit({{3, {3.0}}});  // evicts 2, not 1
  std::vector<double> rates;
  EXPECT_TRUE(store.lookup(1, rates));
  EXPECT_FALSE(store.lookup(2, rates));
  EXPECT_TRUE(store.lookup(3, rates));
}

TEST(WarmStore, CapacityZeroDisablesWarmStart) {
  WarmStore store(0);
  store.commit({{1, {1.0}}});
  std::vector<double> rates;
  EXPECT_FALSE(store.lookup(1, rates));
  EXPECT_EQ(store.size(), 0u);
}

}  // namespace
}  // namespace bwshare::serve
