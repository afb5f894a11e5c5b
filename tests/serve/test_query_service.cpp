// Serving conformance suite: every answer serve::QueryService produces —
// cold, cached, warm-started, coalesced, at any thread count — must be
// bit-identical to a fresh sim::run_simulation of the same canonical
// query. The suite builds the fresh replays by hand (cluster, placement,
// providers, run_simulation) rather than through the serving stack, so a
// bug anywhere in canonicalization, caching, batching or warm-start shows
// up as a bitwise divergence here.
#include "serve/service.hpp"

#include <atomic>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/result_expect.hpp"
#include "eval/sweep.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "serve/protocol.hpp"
#include "sim/rate_model.hpp"
#include "sim/scenario.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bwshare::serve {
namespace {

const char* const kDisjointScheme =
    "scheme \"serve\"\n"
    "nodes 6\n"
    "comm a 0 -> 1 size 4MiB\n"
    "comm b 2 -> 3 size 4MiB\n"
    "comm c 4 -> 5 size 2MiB\n";

// Same scheme with only comm c edited: components a and b are untouched,
// so a warm-start from the first replay's solutions must hit.
const char* const kDisjointSchemeEdited =
    "scheme \"serve\"\n"
    "nodes 6\n"
    "comm a 0 -> 1 size 4MiB\n"
    "comm b 2 -> 3 size 4MiB\n"
    "comm c 4 -> 5 size 1MiB\n";

Query disjoint_query(const char* text, const std::string& network = "gige") {
  Query q;
  q.scheme_text = text;
  q.network = network;
  return q;
}

struct FreshReplays {
  sim::SimResult measured;
  sim::SimResult predicted;
};

/// The conformance reference: replay the canonical query through
/// sim::run_simulation directly, bypassing the whole serving stack.
FreshReplays fresh_run_simulation(const CanonicalQuery& cq) {
  const auto cluster = topo::ClusterSpec::uniform(
      "fresh", cq.nodes, cq.cores, topo::calibration_for(cq.tech));
  const auto placement = sim::make_placement(
      cq.policy, cluster, cq.workload.trace->num_tasks(), cq.seed);
  sim::Scenario scenario;
  if (cq.churn > 0.0) {
    graph::ChurnSpec cs;
    cs.rate = cq.churn;
    cs.horizon = 1.0;
    cs.nodes = cq.nodes;
    scenario.churn = graph::generate_churn(cs, cq.seed);
  }
  if (cq.background > 0.0) {
    graph::BackgroundSpec bs;
    bs.rate = cq.background;
    bs.horizon = 1.0;
    bs.nodes = cq.nodes;
    scenario.background = graph::generate_background(bs, cq.seed);
  }
  const flowsim::FluidRateProvider fluid(cluster.network());
  FreshReplays out{
      sim::run_simulation(*cq.workload.trace, cluster, placement, fluid,
                          scenario),
      {}};
  const std::shared_ptr<const models::PenaltyModel> model =
      models::make_model(cq.model);
  const sim::ModelRateProvider predicted_provider(model, cluster.network());
  out.predicted = sim::run_simulation(*cq.workload.trace, cluster,
                                      placement, predicted_provider,
                                      scenario);
  return out;
}

TEST(QueryService, ColdAnswerMatchesFreshRunSimulation) {
  QueryService service;
  const Query q = disjoint_query(kDisjointScheme);
  const Response r = service.query(q);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.source, Source::kCold);
  const FreshReplays fresh = fresh_run_simulation(canonicalize(q));
  sim::expect_bit_identical(*r.result->measured, fresh.measured);
  sim::expect_bit_identical(*r.result->predicted, fresh.predicted);
}

TEST(QueryService, TraceQueryMatchesFreshRunSimulation) {
  QueryService service;
  Query q;
  q.trace = std::string(BWSHARE_SOURCE_DIR) + "/data/ring8.trace";
  q.network = "myrinet";
  q.schedule = "RRP";
  q.nodes = 8;
  const Response r = service.query(q);
  ASSERT_TRUE(r.ok) << r.error;
  const FreshReplays fresh = fresh_run_simulation(canonicalize(q));
  sim::expect_bit_identical(*r.result->measured, fresh.measured);
  sim::expect_bit_identical(*r.result->predicted, fresh.predicted);
}

TEST(QueryService, ScenarioQueryMatchesFreshRunSimulation) {
  QueryService service;
  Query q = disjoint_query(kDisjointScheme);
  q.churn = 4.0;
  q.background = 10.0;
  q.seed = 7;
  const Response r = service.query(q);
  ASSERT_TRUE(r.ok) << r.error;
  const FreshReplays fresh = fresh_run_simulation(canonicalize(q));
  sim::expect_bit_identical(*r.result->measured, fresh.measured);
  sim::expect_bit_identical(*r.result->predicted, fresh.predicted);
}

TEST(QueryService, CacheHitReturnsTheSameObject) {
  QueryService service;
  const Query q = disjoint_query(kDisjointScheme);
  const Response first = service.query(q);
  const Response second = service.query(q);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.source, Source::kCache);
  // Pointer identity: the memoized result itself, not a recomputation.
  EXPECT_EQ(second.result.get(), first.result.get());
  EXPECT_EQ(service.stats().replays, 1u);
  EXPECT_EQ(service.stats().cache_hits, 1u);
}

TEST(QueryService, SchemeQueriesFallBackToCommLevelEabs) {
  // Schemes are lifted to nonblocking traces (isend + wait_all), so no
  // task ever accrues blocked-send time and the §VI task-level E_abs is
  // vacuously empty. The service must then report the fig-2 per-comm
  // metric instead of a misleading 0.000 next to disagreeing makespans.
  QueryService service;
  Query q;
  q.scheme = "fig2_s4";  // conflicted: GigE penalties split the two sides
  const Response r = service.query(q);
  ASSERT_TRUE(r.ok) << r.error;
  const QueryResult& res = *r.result;
  for (sim::TaskId t = 0;
       t < static_cast<sim::TaskId>(res.measured->tasks.size()); ++t) {
    ASSERT_EQ(res.measured->task_comm_time(t), 0.0);
  }
  EXPECT_NE(res.cell.measured_s, res.cell.predicted_s);
  EXPECT_GT(res.cell.eabs_pct, 0.0);
  // Pin the fallback to the exact fig-2 definition over paired records.
  double total = 0.0;
  size_t count = 0;
  ASSERT_EQ(res.measured->comms.size(), res.predicted->comms.size());
  for (size_t i = 0; i < res.measured->comms.size(); ++i) {
    const auto& m = res.measured->comms[i];
    const auto& p = res.predicted->comms[i];
    const double mt = m.finish - m.start;
    total += std::fabs((p.finish - p.start) - mt) / mt * 100.0;
    ++count;
  }
  ASSERT_GT(count, 0u);
  EXPECT_DOUBLE_EQ(res.cell.eabs_pct, total / static_cast<double>(count));
}

TEST(QueryService, IdenticalQueriesInOneBatchCoalesce) {
  QueryService service;
  Query a = disjoint_query(kDisjointScheme);
  a.id = "leader";
  Query b = a;
  b.id = "follower";
  const auto responses = service.query_batch({a, b});
  ASSERT_EQ(responses.size(), 2u);
  ASSERT_TRUE(responses[0].ok);
  ASSERT_TRUE(responses[1].ok);
  EXPECT_EQ(responses[0].source, Source::kCold);
  EXPECT_EQ(responses[1].source, Source::kCoalesced);
  EXPECT_EQ(responses[0].id, "leader");
  EXPECT_EQ(responses[1].id, "follower");
  EXPECT_EQ(responses[1].result.get(), responses[0].result.get());
  EXPECT_EQ(service.stats().replays, 1u);
  EXPECT_EQ(service.stats().coalesced, 1u);
}

TEST(QueryService, WarmStartHitsOnDisjointEditAndMatchesCold) {
  // verify=true arms both oracles: every memo hit is re-solved and
  // compared bitwise inside the engine, and the warm replay is re-run
  // fully cold inside the service. A divergence aborts the test hard.
  ServiceConfig config;
  config.verify = true;
  QueryService service(config);
  ASSERT_TRUE(service.query(disjoint_query(kDisjointScheme)).ok);
  const Response warm =
      service.query(disjoint_query(kDisjointSchemeEdited));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.source, Source::kWarm);  // components a, b must hit
  EXPECT_GT(service.stats().solve_hits, 0u);

  // And the warm answer equals a fresh standalone replay.
  const FreshReplays fresh =
      fresh_run_simulation(canonicalize(disjoint_query(kDisjointSchemeEdited)));
  sim::expect_bit_identical(*warm.result->measured, fresh.measured);
  sim::expect_bit_identical(*warm.result->predicted, fresh.predicted);
}

// ---------------------------------------------------------------------------
// Edit-distance fuzz: random schemes, k-comm edits, every network, warm
// answers always bitwise-equal to fresh replays. Runs with the verify
// oracle armed, so a stale or mis-keyed memo hit aborts loudly.

struct FuzzComm {
  int src;
  int dst;
  long long bytes;
};

std::string scheme_text_of(const std::vector<FuzzComm>& comms, int nodes) {
  std::string text = "scheme \"fuzz\"\nnodes " + std::to_string(nodes) + "\n";
  for (size_t i = 0; i < comms.size(); ++i) {
    text += "comm c" + std::to_string(i) + " " +
            std::to_string(comms[i].src) + " -> " +
            std::to_string(comms[i].dst) + " size " +
            std::to_string(comms[i].bytes) + "\n";
  }
  return text;
}

TEST(QueryService, FuzzedEditPairsServeBitIdenticalAtEveryEditDistance) {
  const char* const networks[] = {"gige", "myrinet", "ib"};
  Rng rng(987654321);
  for (int round = 0; round < 6; ++round) {
    const int nodes = 6 + static_cast<int>(rng.below(4));
    std::vector<FuzzComm> comms;
    const int n_comms = 6 + static_cast<int>(rng.below(6));
    for (int i = 0; i < n_comms; ++i) {
      FuzzComm c{};
      c.src = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
      c.dst = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
      if (c.dst == c.src) c.dst = (c.dst + 1) % nodes;
      c.bytes = 1 << (18 + static_cast<int>(rng.below(5)));  // 256K..4M
      comms.push_back(c);
    }
    // Edit distance k: k comms change size.
    const int k = 1 + static_cast<int>(rng.below(3));
    std::vector<FuzzComm> edited = comms;
    for (int e = 0; e < k; ++e) {
      edited[rng.below(edited.size())].bytes += 65536;
    }
    const std::string network = networks[rng.below(3)];

    ServiceConfig config;
    config.verify = true;
    QueryService service(config);
    const Response base =
        service.query(disjoint_query(scheme_text_of(comms, nodes).c_str(),
                                     network));
    ASSERT_TRUE(base.ok) << base.error;
    const Query edited_query = disjoint_query(
        scheme_text_of(edited, nodes).c_str(), network);
    const Response served = service.query(edited_query);
    ASSERT_TRUE(served.ok) << served.error;

    const FreshReplays fresh =
        fresh_run_simulation(canonicalize(edited_query));
    sim::expect_bit_identical(*served.result->measured, fresh.measured);
    sim::expect_bit_identical(*served.result->predicted, fresh.predicted);
  }
}

// ---------------------------------------------------------------------------
// Thread-count independence and the concurrent hammer.

std::vector<Query> mixed_query_stream() {
  std::vector<Query> queries;
  queries.push_back(disjoint_query(kDisjointScheme));
  queries.push_back(disjoint_query(kDisjointSchemeEdited));
  queries.push_back(disjoint_query(kDisjointScheme, "myrinet"));
  queries.push_back(disjoint_query(kDisjointScheme));  // repeat -> cache
  Query trace;
  trace.trace = std::string(BWSHARE_SOURCE_DIR) + "/data/ring8.trace";
  trace.nodes = 8;
  queries.push_back(trace);
  return queries;
}

TEST(QueryService, AnswersAreIdenticalAtEveryServiceThreadCount) {
  const auto queries = mixed_query_stream();
  std::vector<std::vector<Response>> per_width;
  for (const int threads : {1, 4, 8}) {
    ServiceConfig config;
    config.threads = threads;
    QueryService service(config);
    // Serve as one batch plus singles, mirroring real mixed use.
    auto responses = service.query_batch(queries);
    per_width.push_back(std::move(responses));
  }
  for (size_t w = 1; w < per_width.size(); ++w) {
    ASSERT_EQ(per_width[w].size(), per_width[0].size());
    for (size_t i = 0; i < per_width[0].size(); ++i) {
      const Response& a = per_width[0][i];
      const Response& b = per_width[w][i];
      ASSERT_TRUE(a.ok);
      ASSERT_TRUE(b.ok);
      EXPECT_EQ(a.source, b.source) << "query " << i;
      EXPECT_EQ(a.fingerprint, b.fingerprint) << "query " << i;
      EXPECT_EQ(a.result->result_hash, b.result->result_hash)
          << "query " << i;
      sim::expect_bit_identical(*a.result->measured, *b.result->measured);
      sim::expect_bit_identical(*a.result->predicted,
                                *b.result->predicted);
    }
  }
}

TEST(QueryService, ThreadCountsOutsideTheRangeFailAtConstruction) {
  // Checked when the service is built, before any batch: a negative count
  // is an error rather than "hardware threads", and so is one above
  // kMaxThreads. Building at the limit starts no thread.
  for (const int threads : {-1, util::kMaxThreads + 1}) {
    ServiceConfig config;
    config.threads = threads;
    EXPECT_THROW(QueryService{config}, Error) << "threads=" << threads;
  }
  ServiceConfig widest;
  widest.threads = util::kMaxThreads;
  EXPECT_NO_THROW(QueryService{widest});
}

TEST(QueryService, ConcurrentHammerServesOnlyConformantAnswers) {
  // Expected answers, computed once outside the service.
  const auto queries = mixed_query_stream();
  std::vector<uint64_t> expected_hashes;
  for (const auto& q : queries) {
    ServiceConfig solo;
    solo.threads = 1;
    QueryService reference(solo);
    const Response r = reference.query(q);
    EXPECT_TRUE(r.ok) << r.error;
    expected_hashes.push_back(r.result->result_hash);
  }

  for (const int service_threads : {1, 4, 8}) {
    ServiceConfig config;
    config.threads = service_threads;
    QueryService service(config);
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    clients.reserve(8);
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        // Each client walks the stream from its own offset, so cache hits,
        // coalescing and warm starts all race across clients.
        for (size_t i = 0; i < queries.size() * 2; ++i) {
          const size_t idx = (static_cast<size_t>(c) + i) % queries.size();
          const Response r = service.query(queries[idx]);
          if (!r.ok || r.result->result_hash != expected_hashes[idx]) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0)
        << "service_threads=" << service_threads;
    EXPECT_EQ(service.stats().errors, 0u);
  }
}

// ---------------------------------------------------------------------------
// Configuration corners.

TEST(QueryService, CacheCapacityZeroServesThrough) {
  ServiceConfig config;
  config.cache_capacity = 0;
  config.memo_capacity = 0;
  QueryService service(config);
  const Query q = disjoint_query(kDisjointScheme);
  const Response first = service.query(q);
  const Response second = service.query(q);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(second.source, Source::kCold);  // never cached
  EXPECT_EQ(service.stats().replays, 2u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
  sim::expect_bit_identical(*first.result->measured,
                            *second.result->measured);
}

TEST(QueryService, WarmStartOffNeverReusesSolves) {
  ServiceConfig config;
  config.memo_capacity = 0;
  QueryService service(config);
  ASSERT_TRUE(service.query(disjoint_query(kDisjointScheme)).ok);
  const Response r = service.query(disjoint_query(kDisjointSchemeEdited));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.source, Source::kCold);
  EXPECT_EQ(service.stats().warm_replays, 0u);
  EXPECT_EQ(service.stats().solve_hits, 0u);
  EXPECT_EQ(service.stats().stored_solutions, 0u);
}

TEST(QueryService, MalformedQueriesErrorWithoutPoisoningTheBatch) {
  QueryService service;
  Query bad;
  bad.id = "bad";  // no workload at all
  Query good = disjoint_query(kDisjointScheme);
  good.id = "good";
  const auto responses = service.query_batch({bad, good});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_FALSE(responses[0].ok);
  EXPECT_EQ(responses[0].source, Source::kError);
  EXPECT_FALSE(responses[0].error.empty());
  ASSERT_TRUE(responses[1].ok);
  EXPECT_EQ(responses[1].source, Source::kCold);
  EXPECT_EQ(service.stats().errors, 1u);
  // The error produced no cache line: retrying is a fresh canonicalize.
  EXPECT_FALSE(service.query(bad).ok);
}

TEST(QueryService, ReplayFailuresAreErrorResponsesAndNeverCached) {
  // The trace validates (every send has its receive) but deadlocks when
  // replayed: both tasks first wait to receive from the other.
  Query stuck;
  stuck.id = "stuck";
  stuck.trace_text =
      "tasks 2\n"
      "0 recv 1 1000000\n"
      "0 send 1 1000000\n"
      "1 recv 0 1000000\n"
      "1 send 0 1000000\n";
  Query twin = stuck;
  twin.id = "twin";
  QueryService service;
  const auto responses = service.query_batch({stuck, twin});
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& r : responses) {
    EXPECT_FALSE(r.ok) << r.id;
    EXPECT_EQ(r.source, Source::kError) << r.id;
    EXPECT_NE(r.error.find("simulation deadlock"), std::string::npos)
        << r.error;
  }
  EXPECT_EQ(responses[0].fingerprint, responses[1].fingerprint);
  EXPECT_EQ(service.stats().errors, 2u);
  EXPECT_EQ(service.stats().cached_results, 0u);
  // A retry replays again instead of serving a cached failure.
  const Response retry = service.query(stuck);
  EXPECT_FALSE(retry.ok);
  EXPECT_EQ(retry.source, Source::kError);
  EXPECT_EQ(service.stats().errors, 3u);
  EXPECT_EQ(service.stats().cache_hits, 0u);
}

TEST(QueryService, SchemesBeyondTheNodeCeilingAreErrorResponses) {
  // Without the ceiling either scheme sized a 2^31-entry allocation and the
  // daemon died with std::bad_alloc.
  QueryService service;
  for (const char* text : {"nodes 2147483647\ncomm a 0 -> 1\n",
                           "comm a 0 -> 2147483646\n"}) {
    Query q;
    q.id = "huge";
    q.scheme_text = text;
    const Response r = service.query(q);
    EXPECT_FALSE(r.ok) << text;
    EXPECT_EQ(r.source, Source::kError);
    EXPECT_NE(r.error.find("exceeds the limit of 1000000"), std::string::npos)
        << r.error;
  }
  Query big_trace;
  big_trace.trace_text = "tasks 2147483647\n";
  const Response r = service.query(big_trace);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("trace line 1: task count 2147483647 exceeds"),
            std::string::npos)
      << r.error;
  EXPECT_EQ(service.stats().errors, 3u);
}

TEST(QueryService, ScriptRatesBeyondTheCountCeilingAreErrorResponses) {
  // Without the ceiling a rate of 1e9 events/s over the 1 s horizon built a
  // script of about 10^9 events before the replay started (~16 GB).
  QueryService service;
  Query churn = disjoint_query(kDisjointScheme);
  churn.churn = 1e9;
  Query background = disjoint_query(kDisjointScheme);
  background.background = 1e9;
  const auto responses = service.query_batch({churn, background});
  ASSERT_EQ(responses.size(), 2u);
  for (const Response& r : responses) {
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.source, Source::kError);
  }
  EXPECT_NE(responses[0].error.find(
                "churn: rate * horizon must be at most 1000000 events"),
            std::string::npos)
      << responses[0].error;
  EXPECT_NE(responses[1].error.find(
                "background: rate * horizon must be at most 1000000 flows"),
            std::string::npos)
      << responses[1].error;
  EXPECT_EQ(service.stats().errors, 2u);
}

// ---------------------------------------------------------------------------
// Wire protocol.

TEST(Protocol, ParsesFlatObjects) {
  const auto obj = parse_flat_json_object(
      "{\"id\":\"q\\\"1\\\"\", \"nodes\": 16, \"churn\": 2.5, "
      "\"flag\": true, \"nothing\": null}");
  ASSERT_EQ(obj.size(), 5u);
  EXPECT_EQ(obj[0].first, "id");
  EXPECT_EQ(obj[0].second.str, "q\"1\"");
  EXPECT_EQ(obj[1].second.num, 16.0);
  EXPECT_EQ(obj[2].second.num, 2.5);
  EXPECT_TRUE(obj[3].second.boolean);
  EXPECT_EQ(obj[4].second.kind, JsonValue::Kind::kNull);
}

TEST(Protocol, RejectsMalformedLines) {
  EXPECT_THROW(static_cast<void>(parse_flat_json_object("")), Error);
  EXPECT_THROW(static_cast<void>(parse_flat_json_object("{\"a\":1")), Error);
  EXPECT_THROW(static_cast<void>(parse_flat_json_object("{\"a\":1} junk")),
               Error);
  EXPECT_THROW(
      static_cast<void>(parse_flat_json_object("{\"a\":{\"nested\":1}}")),
      Error);
  EXPECT_THROW(
      static_cast<void>(parse_flat_json_object("{\"a\":1,\"a\":2}")), Error);
  EXPECT_THROW(static_cast<void>(parse_flat_json_object("{\"a\":bogus}")),
               Error);
}

TEST(Protocol, QueryFromJsonIsStrictAboutKeysAndTypes) {
  const Query q = query_from_json(parse_flat_json_object(
      "{\"id\":\"x\",\"scheme\":\"mk1\",\"network\":\"myrinet\","
      "\"nodes\":8,\"seed\":\"12345678901234567890\"}"));
  EXPECT_EQ(q.id, "x");
  EXPECT_EQ(q.scheme, "mk1");
  EXPECT_EQ(q.nodes, 8);
  EXPECT_EQ(q.seed, 12345678901234567890ULL);  // > 2^53: string carries it

  EXPECT_THROW(static_cast<void>(query_from_json(parse_flat_json_object(
                   "{\"schem\":\"mk1\"}"))),
               Error);  // typo must not become a default
  EXPECT_THROW(static_cast<void>(query_from_json(parse_flat_json_object(
                   "{\"nodes\":\"sixteen\"}"))),
               Error);
  EXPECT_THROW(static_cast<void>(query_from_json(parse_flat_json_object(
                   "{\"nodes\":2.5}"))),
               Error);
  EXPECT_THROW(static_cast<void>(query_from_json(parse_flat_json_object(
                   "{\"seed\":-1}"))),
               Error);
}

TEST(Protocol, DecodesEveryStringEscape) {
  const auto obj = parse_flat_json_object(
      R"({"s":"\/\b\f\n\r\t\"\\\u0041\u007e\u005A"})");
  ASSERT_EQ(obj.size(), 1u);
  EXPECT_EQ(obj[0].second.str, "/\b\f\n\r\t\"\\A~Z");
}

TEST(Protocol, RejectsBadEscapes) {
  const auto error_of = [](const std::string& line) {
    try {
      (void)parse_flat_json_object(line);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("parsed");
  };
  const auto expect_error = [&](const std::string& line, const char* what) {
    const std::string error = error_of(line);
    EXPECT_NE(error.find(what), std::string::npos) << line << ": " << error;
  };
  expect_error(R"({"s":"\u00e9"})", "non-ASCII \\u escapes");
  expect_error(R"({"s":"\uzzzz"})", "bad \\u escape");
  expect_error(R"({"s":"\u12"})", "bad \\u escape");
  expect_error(R"({"s":"\u12)", "truncated \\u escape");
  expect_error(R"({"s":"\q"})", "bad escape '\\q'");
  expect_error(R"({"s":"abc\)", "unterminated escape");
  expect_error(R"({"s":"abc)", "unterminated string");
}

TEST(Protocol, QueryFromJsonReadsEveryKey) {
  const Query q = query_from_json(parse_flat_json_object(
      R"({"op":"query","id":"all","scheme":"mk1","scheme_text":"s",)"
      R"("trace":"t.trace","trace_text":"tasks 1\n","network":"ib",)"
      R"("model":"kimlee","nodes":4,"cores":3,"schedule":"RRP",)"
      R"("churn":1.5,"background":2.5,"seed":7})"));
  EXPECT_EQ(q.id, "all");
  EXPECT_EQ(q.scheme, "mk1");
  EXPECT_EQ(q.scheme_text, "s");
  EXPECT_EQ(q.trace, "t.trace");
  EXPECT_EQ(q.trace_text, "tasks 1\n");
  EXPECT_EQ(q.network, "ib");
  EXPECT_EQ(q.model, "kimlee");
  EXPECT_EQ(q.nodes, 4);
  EXPECT_EQ(q.cores, 3);
  EXPECT_EQ(q.schedule, "RRP");
  EXPECT_EQ(q.churn, 1.5);
  EXPECT_EQ(q.background, 2.5);
  EXPECT_EQ(q.seed, 7u);
  // Any other op has no place inside a query batch.
  EXPECT_THROW(static_cast<void>(query_from_json(
                   parse_flat_json_object(R"({"op":"stats"})"))),
               Error);
  EXPECT_THROW(static_cast<void>(query_from_json(
                   parse_flat_json_object(R"({"background":"high"})"))),
               Error);
}

TEST(Protocol, SourceNamesOnTheWire) {
  EXPECT_EQ(to_string(Source::kError), "error");
  EXPECT_EQ(to_string(Source::kCold), "cold");
  EXPECT_EQ(to_string(Source::kWarm), "warm");
  EXPECT_EQ(to_string(Source::kCache), "cache");
  EXPECT_EQ(to_string(Source::kCoalesced), "coalesced");
}

std::string serve_stream(const std::string& input, int threads) {
  ServiceConfig config;
  config.threads = threads;
  std::istringstream in(input);
  std::ostringstream out;
  static_cast<void>(run_serve_loop(in, out, config));
  return out.str();
}

TEST(Protocol, ServeLoopStreamIsByteIdenticalAcrossThreadCounts) {
  std::string input;
  input += std::string("{\"id\":\"q1\",\"scheme_text\":\"scheme \\\"s\\\"\\n"
                       "nodes 6\\ncomm a 0 -> 1 size 4MiB\\n"
                       "comm b 2 -> 3 size 4MiB\\n"
                       "comm c 4 -> 5 size 2MiB\\n\"}\n");
  input += "\n";  // flush batch 1
  input += std::string("{\"id\":\"q1-again\",\"scheme_text\":\"scheme "
                       "\\\"s\\\"\\nnodes 6\\ncomm a 0 -> 1 size 4MiB\\n"
                       "comm b 2 -> 3 size 4MiB\\n"
                       "comm c 4 -> 5 size 2MiB\\n\"}\n");
  input += "this is not json\n";  // forces an in-order error line
  input += std::string("{\"id\":\"q2\",\"scheme_text\":\"scheme \\\"s\\\"\\n"
                       "nodes 6\\ncomm a 0 -> 1 size 4MiB\\n"
                       "comm b 2 -> 3 size 4MiB\\n"
                       "comm c 4 -> 5 size 1MiB\\n\"}\n");
  input += "\n";
  input += "{\"op\":\"stats\"}\n";

  const std::string at1 = serve_stream(input, 1);
  const std::string at4 = serve_stream(input, 4);
  const std::string at8 = serve_stream(input, 8);
  EXPECT_EQ(at1, at4);
  EXPECT_EQ(at1, at8);

  // Spot-check the stream: sources and ordering.
  EXPECT_NE(at1.find("\"source\":\"cold\""), std::string::npos);
  EXPECT_NE(at1.find("\"source\":\"cache\""), std::string::npos);
  EXPECT_NE(at1.find("\"source\":\"warm\""), std::string::npos);
  EXPECT_NE(at1.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(at1.find("\"op\":\"stats\""), std::string::npos);
  // The malformed line's error answer lands after q1-again's response.
  EXPECT_LT(at1.find("\"id\":\"q1-again\""), at1.find("\"ok\":false"));
}

TEST(Protocol, ServeLoopCountsFailures) {
  ServiceConfig config;
  config.threads = 1;
  std::istringstream in("not json at all\n{\"id\":\"ok\",\"scheme\":\"mk1\"}\n\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve_loop(in, out, config), 1u);
}

}  // namespace
}  // namespace bwshare::serve
