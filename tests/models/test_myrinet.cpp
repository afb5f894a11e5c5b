// Myrinet model tests. The central anchor is the paper's own worked example:
// Fig 5 (state sets) and Fig 6 (penalty calculation) must be reproduced
// *exactly*.
#include "models/myrinet.hpp"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "graph/schemes.hpp"
#include "util/strings.hpp"

namespace bwshare::models {
namespace {

using graph::CommGraph;

TEST(MyrinetModel, Fig5StateSetsCountIsFive) {
  const auto g = graph::schemes::fig5_scheme();
  const MyrinetModel model;
  const auto analysis = model.analyze(g, /*materialize_sets=*/true);
  EXPECT_TRUE(analysis.complete);
  EXPECT_EQ(analysis.num_state_sets, 5u);
  EXPECT_EQ(analysis.state_sets.size(), 5u);
}

TEST(MyrinetModel, Fig5StateSetsAreMaximalAndIndependent) {
  const auto g = graph::schemes::fig5_scheme();
  const MyrinetModel model;
  const auto analysis = model.analyze(g, /*materialize_sets=*/true);
  const graph::ConflictGraph conflicts(g);

  for (const auto& set : analysis.state_sets) {
    // Independence: no two sending comms conflict.
    for (size_t i = 0; i < set.size(); ++i)
      for (size_t j = i + 1; j < set.size(); ++j)
        EXPECT_FALSE(conflicts.conflicts(set[i], set[j]))
            << "conflicting pair in send set";
    // Maximality: every non-member conflicts with some member.
    for (graph::CommId c = 0; c < g.size(); ++c) {
      if (std::find(set.begin(), set.end(), c) != set.end()) continue;
      bool blocked = false;
      for (graph::CommId s : set) blocked = blocked || conflicts.conflicts(c, s);
      EXPECT_TRUE(blocked) << "comm " << g.label(c)
                           << " could be added to a send set";
    }
  }
}

TEST(MyrinetModel, Fig6EmissionSums) {
  // Paper fig 6 "Sum" row: a=1, b=2, c=2, d=2, e=2, f=3.
  const auto g = graph::schemes::fig5_scheme();
  const MyrinetModel model;
  const auto analysis = model.analyze(g);
  const std::vector<uint64_t> expected{1, 2, 2, 2, 2, 3};
  EXPECT_EQ(analysis.emission, expected);
}

TEST(MyrinetModel, Fig6MinimumRow) {
  // Paper fig 6 "Minimum" row: a=1, b=1, c=1, d=2, e=2, f=2.
  const auto g = graph::schemes::fig5_scheme();
  const MyrinetModel model;
  const auto analysis = model.analyze(g);
  const std::vector<uint64_t> expected{1, 1, 1, 2, 2, 2};
  EXPECT_EQ(analysis.min_emission, expected);
}

TEST(MyrinetModel, Fig6Penalties) {
  // Paper fig 6 "penalty" row: a=b=c=5, d=e=f=2.5.
  const auto g = graph::schemes::fig5_scheme();
  const MyrinetModel model;
  const auto penalties = model.penalties(g);
  const std::vector<double> expected{5.0, 5.0, 5.0, 2.5, 2.5, 2.5};
  ASSERT_EQ(penalties.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i)
    EXPECT_DOUBLE_EQ(penalties[i], expected[i]) << "comm " << i;
}

TEST(MyrinetModel, SingleCommunicationHasUnitPenalty) {
  const auto g = graph::schemes::outgoing_fan(1);
  const MyrinetModel model;
  EXPECT_EQ(model.penalties(g), std::vector<double>{1.0});
}

TEST(MyrinetModel, OutgoingFanPenaltyEqualsFanDegree) {
  // k mutually conflicting comms -> k singleton state sets -> penalty k.
  for (int fan = 2; fan <= 6; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan);
    const MyrinetModel model;
    const auto penalties = model.penalties(g);
    for (double p : penalties) EXPECT_DOUBLE_EQ(p, fan) << "fan " << fan;
  }
}

TEST(MyrinetModel, IncomingFanPenaltyEqualsFanDegree) {
  for (int fan = 2; fan <= 6; ++fan) {
    const auto g = graph::schemes::incoming_fan(fan);
    const MyrinetModel model;
    const auto penalties = model.penalties(g);
    for (double p : penalties) EXPECT_DOUBLE_EQ(p, fan) << "fan " << fan;
  }
}

TEST(MyrinetModel, RingWithOneTaskPerNodeIsConflictFree) {
  // Ring comms share hosts only in opposite directions, which the paper's
  // Myrinet conflict rule ignores -> all penalties 1.
  CommGraph g;
  for (int i = 0; i < 8; ++i) g.add(i, (i + 1) % 8, 20e6);
  const MyrinetModel model;
  for (double p : model.penalties(g)) EXPECT_DOUBLE_EQ(p, 1.0);
}

TEST(MyrinetModel, DisconnectedComponentsFactorize) {
  // Two independent 2-fans: per-component 2 sets; penalties stay 2 and the
  // global state count is 4.
  CommGraph g;
  g.add("a", 0, 1, 1e6);
  g.add("b", 0, 2, 1e6);
  g.add("c", 3, 4, 1e6);
  g.add("d", 3, 5, 1e6);
  const MyrinetModel model;
  const auto analysis = model.analyze(g);
  EXPECT_EQ(analysis.num_state_sets, 4u);
  for (double p : analysis.penalty) EXPECT_DOUBLE_EQ(p, 2.0);
  // Emission: each comm sends in 1 of its component's 2 sets, times the
  // other component's 2 sets.
  for (uint64_t e : analysis.emission) EXPECT_EQ(e, 2u);
}

TEST(MyrinetModel, GlobalSetCountSaturatesWhilePenaltiesStayExact) {
  // 65 disjoint 2-fans have 2^65 global state sets, past uint64_t. The
  // count saturates and the analysis says it is incomplete, but penalties
  // are ratios inside each component and stay exactly 2.
  CommGraph g;
  for (int f = 0; f < 65; ++f) {
    g.add(3 * f, 3 * f + 1, 1e6);
    g.add(3 * f, 3 * f + 2, 1e6);
  }
  const MyrinetModel model;
  const auto analysis = model.analyze(g);
  EXPECT_EQ(analysis.num_state_sets, std::numeric_limits<uint64_t>::max());
  EXPECT_FALSE(analysis.complete);
  for (double p : analysis.penalty) EXPECT_EQ(p, 2.0);
  for (double p : model.penalties(g)) EXPECT_EQ(p, 2.0);
}

TEST(MyrinetModel, IntraNodeCommsAreExemptFromPenalties) {
  CommGraph g;
  g.add("shm", 2, 2, 1e6);  // same node: shared-memory copy
  g.add("a", 0, 1, 1e6);
  g.add("b", 0, 3, 1e6);
  const MyrinetModel model;
  const auto penalties = model.penalties(g);
  EXPECT_DOUBLE_EQ(penalties[0], 1.0);
  EXPECT_DOUBLE_EQ(penalties[1], 2.0);
  EXPECT_DOUBLE_EQ(penalties[2], 2.0);
}

TEST(MyrinetModel, EmptyGraph) {
  const CommGraph g;
  const MyrinetModel model;
  EXPECT_TRUE(model.penalties(g).empty());
  const auto analysis = model.analyze(g);
  EXPECT_EQ(analysis.num_state_sets, 1u);
}

// Property sweep: penalties are always >= 1 and at most the number of
// communications, on a family of random-ish graphs.
class MyrinetPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MyrinetPropertyTest, PenaltiesBoundedByCommCount) {
  const int seed = GetParam();
  // Deterministic pseudo-random graph from the seed.
  CommGraph g;
  uint64_t state = static_cast<uint64_t>(seed) * 2654435761u + 1;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  const int comms = 2 + static_cast<int>(next() % 10);
  const int nodes = 3 + static_cast<int>(next() % 6);
  for (int i = 0; i < comms; ++i) {
    const int src = static_cast<int>(next() % nodes);
    int dst = static_cast<int>(next() % nodes);
    if (dst == src) dst = (dst + 1) % nodes;
    g.add(strformat("c%d", i), src, dst, 1e6);
  }
  const MyrinetModel model;
  const auto analysis = model.analyze(g);
  ASSERT_TRUE(analysis.complete);
  for (double p : analysis.penalty) {
    EXPECT_GE(p, 1.0);
    // A penalty can exceed the comm count (state-set counts grow up to
    // 3^(n/3) by Moon–Moser), but never the number of state sets.
    EXPECT_LE(p, static_cast<double>(analysis.num_state_sets));
  }
  // Emission coefficients never exceed the state-set count.
  for (uint64_t e : analysis.emission) EXPECT_LE(e, analysis.num_state_sets);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MyrinetPropertyTest,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace bwshare::models
