#include "graph/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/rng.hpp"

namespace bwshare::graph {
namespace {

// Structural equality down to message sizes — the determinism contract.
void expect_identical(const CommGraph& a, const CommGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (CommId i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_EQ(a.comm(i).src, b.comm(i).src);
    EXPECT_EQ(a.comm(i).dst, b.comm(i).dst);
    EXPECT_EQ(a.comm(i).bytes, b.comm(i).bytes);  // bit-exact, no tolerance
  }
}

/// Run `fn` expecting a bwshare::Error whose message contains `needle`.
template <typename Fn>
void expect_error(Fn&& fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected an Error containing \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message was: " << e.what();
  }
}

TEST(SchemeFamily, RoundTripsThroughStrings) {
  for (const auto family :
       {SchemeFamily::kRing, SchemeFamily::kHotspot,
        SchemeFamily::kUniformRandom, SchemeFamily::kAllToAll}) {
    EXPECT_EQ(scheme_family_from_string(to_string(family)), family);
  }
  EXPECT_THROW((void)scheme_family_from_string("torus"), Error);
}

TEST(GeneratorSpec, ParsesFullSpec) {
  const auto spec =
      parse_generator_spec("random:nodes=12,comms=18,bytes=4M,spread=1");
  EXPECT_EQ(spec.family, SchemeFamily::kUniformRandom);
  EXPECT_EQ(spec.nodes, 12);
  EXPECT_EQ(spec.comms, 18);
  EXPECT_DOUBLE_EQ(spec.bytes, 4e6);
  EXPECT_DOUBLE_EQ(spec.spread, 1.0);
}

TEST(GeneratorSpec, EmptyParamsMeanDefaults) {
  const auto spec = parse_generator_spec("ring:");
  EXPECT_EQ(spec.family, SchemeFamily::kRing);
  EXPECT_EQ(spec.nodes, 8);
  EXPECT_DOUBLE_EQ(spec.bytes, 4e6);
}

TEST(GeneratorSpec, RejectsMalformedInput) {
  EXPECT_THROW((void)parse_generator_spec("ring"), Error);  // no colon
  EXPECT_THROW((void)parse_generator_spec("torus:nodes=4"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:nodes"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:nodes=abc"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:sides=4"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:bytes=4Q"), Error);
}

TEST(GeneratorSpec, ValidatesRanges) {
  EXPECT_THROW((void)parse_generator_spec("ring:nodes=1"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:nodes=257"), Error);
  EXPECT_THROW((void)parse_generator_spec("alltoall:nodes=9"), Error);
  EXPECT_THROW((void)parse_generator_spec("random:comms=5000"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:comms=4"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:bytes=0"), Error);
  try {
    (void)parse_generator_spec("ring:bytes=1e999");
    ADD_FAILURE() << "an infinite message size was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "generator: bytes must be finite and > 0, got inf"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)parse_generator_spec("ring:spread=9"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:spread=-1"), Error);
}

TEST(GeneratorSpec, RejectsValuesThatWouldWrapTheIntCast) {
  // 2^32+2 must not silently truncate into the valid [2, 256] range.
  EXPECT_THROW((void)parse_generator_spec("random:nodes=4294967298"), Error);
  EXPECT_THROW((void)parse_generator_spec("random:comms=4294967298"), Error);
  EXPECT_THROW((void)parse_generator_spec("ring:nodes=99999999999999999999"),
               Error);
}

TEST(GenerateScheme, RingStructure) {
  const auto g =
      generate_scheme(parse_generator_spec("ring:nodes=6,bytes=1M"), 7);
  ASSERT_EQ(g.size(), 6);
  for (CommId i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.comm(i).src, i);
    EXPECT_EQ(g.comm(i).dst, (i + 1) % 6);
    EXPECT_DOUBLE_EQ(g.comm(i).bytes, 1e6);
  }
}

TEST(GenerateScheme, AllToAllHasEveryOrderedPair) {
  const auto g =
      generate_scheme(parse_generator_spec("alltoall:nodes=5"), 1);
  EXPECT_EQ(g.size(), 5 * 4);
  EXPECT_EQ(g.num_nodes(), 5);
  for (const auto& c : g.comms()) EXPECT_NE(c.src, c.dst);
}

TEST(GenerateScheme, HotspotArcsAllTouchNodeZero) {
  const auto g =
      generate_scheme(parse_generator_spec("hotspot:nodes=9"), 3);
  EXPECT_EQ(g.size(), 8);
  bool any_incoming = false;
  for (const auto& c : g.comms()) {
    EXPECT_TRUE(c.src == 0 || c.dst == 0);
    EXPECT_NE(c.src, c.dst);
    if (c.dst == 0) any_incoming = true;
  }
  EXPECT_TRUE(any_incoming);  // node 1 always sends into the hotspot
}

TEST(GenerateScheme, RandomFamilyRespectsCounts) {
  const auto g = generate_scheme(
      parse_generator_spec("random:nodes=7,comms=25"), 11);
  EXPECT_EQ(g.size(), 25);
  for (const auto& c : g.comms()) {
    EXPECT_GE(c.src, 0);
    EXPECT_LT(c.src, 7);
    EXPECT_GE(c.dst, 0);
    EXPECT_LT(c.dst, 7);
    EXPECT_NE(c.src, c.dst);
  }
}

TEST(GenerateScheme, RandomCommsDefaultsToTwiceNodes) {
  const auto g =
      generate_scheme(parse_generator_spec("random:nodes=5"), 11);
  EXPECT_EQ(g.size(), 10);
}

TEST(GenerateScheme, StableForAFixedSeed) {
  for (const char* spec_text :
       {"ring:nodes=8,spread=2", "hotspot:nodes=12,spread=1",
        "random:nodes=10,comms=20,spread=0.5", "alltoall:nodes=4"}) {
    const auto spec = parse_generator_spec(spec_text);
    expect_identical(generate_scheme(spec, 123), generate_scheme(spec, 123));
  }
}

TEST(GenerateScheme, DifferentSeedsDiffer) {
  const auto spec = parse_generator_spec("random:nodes=16,comms=40");
  const auto a = generate_scheme(spec, 1);
  const auto b = generate_scheme(spec, 2);
  bool any_difference = false;
  for (CommId i = 0; i < a.size(); ++i) {
    if (a.comm(i).src != b.comm(i).src || a.comm(i).dst != b.comm(i).dst) {
      any_difference = true;
      break;
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(GenerateScheme, SpreadBoundsMessageSizes) {
  const auto spec = parse_generator_spec("random:nodes=8,bytes=1M,spread=2");
  const auto g = generate_scheme(spec, 5);
  bool any_off_base = false;
  for (const auto& c : g.comms()) {
    EXPECT_GE(c.bytes, 1e6 * std::exp2(-2.0));
    EXPECT_LE(c.bytes, 1e6 * std::exp2(2.0));
    if (c.bytes != 1e6) any_off_base = true;
  }
  EXPECT_TRUE(any_off_base);
}

// A script's expected length, rate * horizon, is capped at kMaxCount: the
// generators build the whole script before a replay starts, and a rate of
// 1e9 events/s used to ask for about 16 GB. The 0.1 s horizon keeps a script
// at the limit (about 10^6 events) quick to draw.
TEST(ChurnSpec, ExpectedEventCountIsCappedAtTheCountLimit) {
  ChurnSpec spec;
  spec.nodes = 2;
  spec.horizon = 0.1;
  spec.rate = 1e7;
  ASSERT_EQ(spec.rate * spec.horizon, kMaxCount);
  const auto script = generate_churn(spec, 3);
  EXPECT_GT(script.size(), 900000u);
  EXPECT_LT(script.size(), 1100000u);
  spec.rate = 1.00001e7;
  expect_error([&] { (void)generate_churn(spec, 3); },
               "churn: rate * horizon must be at most 1000000 events, got "
               "1.00001e+06");
  spec.rate = 1e9;
  spec.horizon = 1.0;
  EXPECT_THROW(spec.validate(), Error);
}

/// generate_churn as it was before its Fenwick index: the k-th up or down
/// node found by a linear scan over every node. Sets `all_down` if the
/// script ever takes every node down.
std::vector<ChurnEvent> linear_scan_churn(const ChurnSpec& spec,
                                          uint64_t seed, bool& all_down) {
  std::vector<ChurnEvent> script;
  if (spec.rate == 0.0) return script;
  uint64_t salt = seed ^ 0xc2b2ae3d27d4eb4fULL;
  Rng rng(splitmix64(salt));
  std::vector<bool> up(static_cast<size_t>(spec.nodes), true);
  int num_up = spec.nodes;
  double t = 0.0;
  while (true) {
    t += rng.exponential(spec.rate);
    if (t >= spec.horizon) break;
    const bool departure = num_up == spec.nodes ||
                           (num_up > 0 && rng.uniform() < 0.5);
    const int pool = departure ? num_up : spec.nodes - num_up;
    if (pool == 0) continue;
    int pick = static_cast<int>(rng.below(static_cast<uint64_t>(pool)));
    int node = -1;
    for (int v = 0; v < spec.nodes; ++v) {
      if (up[static_cast<size_t>(v)] == departure && pick-- == 0) {
        node = v;
        break;
      }
    }
    ChurnEvent ev;
    ev.time = t;
    ev.node = node;
    if (departure) {
      ev.kind = rng.uniform() < spec.p_fail ? ChurnKind::kFail
                                            : ChurnKind::kLeave;
      up[static_cast<size_t>(node)] = false;
      --num_up;
    } else {
      ev.kind = ChurnKind::kJoin;
      up[static_cast<size_t>(node)] = true;
      ++num_up;
    }
    if (num_up == 0) all_down = true;
    script.push_back(ev);
  }
  return script;
}

TEST(ChurnSpec, ScriptsMatchTheLinearScanReference) {
  int all_down_runs = 0;
  for (const int nodes : {2, 3, 7, 64, 1000}) {
    for (const double rate : {5.0, 200.0, 5000.0}) {
      for (const double p_fail : {0.0, 0.5, 1.0}) {
        for (const uint64_t seed : {1u, 2u, 3u}) {
          ChurnSpec spec;
          spec.nodes = nodes;
          spec.rate = rate;
          spec.p_fail = p_fail;
          bool all_down = false;
          const auto expect = linear_scan_churn(spec, seed, all_down);
          if (all_down) ++all_down_runs;
          const auto got = generate_churn(spec, seed);
          ASSERT_EQ(got.size(), expect.size())
              << "nodes=" << nodes << " rate=" << rate << " seed=" << seed;
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].time, expect[i].time) << "event " << i;
            ASSERT_EQ(got[i].kind, expect[i].kind) << "event " << i;
            ASSERT_EQ(got[i].node, expect[i].node) << "event " << i;
          }
        }
      }
    }
  }
  EXPECT_GT(all_down_runs, 0);
}

TEST(ChurnSpec, ScriptsNextToPowersOfTwoMatchTheLinearScanReference) {
  // The Fenwick walk starts at the largest power of two <= nodes: node
  // counts on either side of one, up to the 65536-node cap, each with
  // enough events to pick up and down nodes across the whole range.
  for (const int nodes : {4095, 4096, 4097, 65535, 65536}) {
    ChurnSpec spec;
    spec.nodes = nodes;
    spec.rate = 1500.0;
    bool all_down = false;
    const auto expect = linear_scan_churn(spec, 11, all_down);
    const auto got = generate_churn(spec, 11);
    ASSERT_EQ(got.size(), expect.size()) << "nodes=" << nodes;
    int highest = 0;
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].time, expect[i].time) << "event " << i;
      ASSERT_EQ(got[i].kind, expect[i].kind) << "event " << i;
      ASSERT_EQ(got[i].node, expect[i].node) << "event " << i;
      highest = std::max(highest, got[i].node);
    }
    // Some event lands in the top quarter of the nodes.
    EXPECT_GE(highest, nodes - nodes / 4) << "nodes=" << nodes;
  }
}

TEST(BackgroundSpec, ExpectedFlowCountIsCappedAtTheCountLimit) {
  BackgroundSpec spec;
  spec.horizon = 0.1;
  spec.rate = 1e7;
  ASSERT_EQ(spec.rate * spec.horizon, kMaxCount);
  const auto script = generate_background(spec, 3);
  EXPECT_GT(script.size(), 900000u);
  EXPECT_LT(script.size(), 1100000u);
  spec.rate = 1.00001e7;
  expect_error([&] { (void)generate_background(spec, 3); },
               "background: rate * horizon must be at most 1000000 flows, "
               "got 1.00001e+06");
  spec.rate = 1e9;
  spec.horizon = 1.0;
  EXPECT_THROW(spec.validate(), Error);
}

}  // namespace
}  // namespace bwshare::graph
