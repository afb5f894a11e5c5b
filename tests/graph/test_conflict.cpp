#include "graph/conflict.hpp"

#include <gtest/gtest.h>

#include "graph/schemes.hpp"

namespace bwshare::graph {
namespace {

TEST(Conflicts, ClassifyElementaryKinds) {
  // Fig 1: node 0 outgoing conflict, node 1 income conflict, node 2 both
  // directions.
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 0, 1, 1.0);
  g.add("c", 2, 3, 1.0);
  g.add("d", 4, 2, 1.0);
  const auto conflicts = classify_conflicts(g);
  // a and b: outgoing conflict at 0 and income conflict at 1.
  EXPECT_TRUE(conflicts[0].outgoing);
  EXPECT_TRUE(conflicts[0].income);
  EXPECT_EQ(conflicts[0].dominant(), ConflictKind::kMixed);
  // c: its source node 2 also receives d -> income/outgo.
  EXPECT_FALSE(conflicts[2].outgoing);
  EXPECT_TRUE(conflicts[2].income_outgo);
  EXPECT_EQ(conflicts[2].dominant(), ConflictKind::kIncomeOutgo);
  // d: its destination node 2 also sends c -> income/outgo.
  EXPECT_TRUE(conflicts[3].income_outgo);
}

TEST(Conflicts, UnconflictedComm) {
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  const auto conflicts = classify_conflicts(g);
  EXPECT_FALSE(conflicts[0].any());
  EXPECT_EQ(conflicts[0].dominant(), ConflictKind::kNone);
}

TEST(Conflicts, KindNames) {
  // The spellings scheme_explorer prints in its conflict column.
  EXPECT_EQ(to_string(ConflictKind::kNone), "none");
  EXPECT_EQ(to_string(ConflictKind::kOutgoing), "outgoing");
  EXPECT_EQ(to_string(ConflictKind::kIncome), "income");
  EXPECT_EQ(to_string(ConflictKind::kIncomeOutgo), "income/outgo");
  EXPECT_EQ(to_string(ConflictKind::kMixed), "mixed");
}

TEST(ConflictGraph, SameDirectionRule) {
  const auto g = schemes::fig5_scheme();
  const ConflictGraph cg(g);
  const auto id = [&](const char* label) { return *g.find(label); };
  // Same source: a,b,c from node 0; e,f from node 2.
  EXPECT_TRUE(cg.conflicts(id("a"), id("b")));
  EXPECT_TRUE(cg.conflicts(id("e"), id("f")));
  // Same destination: a,d,e into node 1.
  EXPECT_TRUE(cg.conflicts(id("a"), id("d")));
  EXPECT_TRUE(cg.conflicts(id("d"), id("e")));
  // Income/outgo pairs are NOT conflicts: b:0->2 vs e:2->1.
  EXPECT_FALSE(cg.conflicts(id("b"), id("e")));
  // Disjoint endpoints: b:0->2 vs d:4->1.
  EXPECT_FALSE(cg.conflicts(id("b"), id("d")));
}

TEST(ConflictGraph, OppositeDirectionsAtAHostDoNotConflict) {
  // A directed 3-cycle: every node sends one comm and receives another, so
  // each pair shares a host, but only in opposite directions. The §V-B rule
  // ignores that interaction: no edges, three singleton components.
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 1, 2, 1.0);
  g.add("c", 2, 0, 1.0);
  const ConflictGraph cg(g);
  for (CommId i = 0; i < 3; ++i) {
    EXPECT_EQ(cg.degree(i), 0);
    for (CommId j = 0; j < 3; ++j) EXPECT_FALSE(cg.conflicts(i, j));
  }
  EXPECT_EQ(cg.components().size(), 3u);
  // The elementary classification still names the host interaction.
  for (const auto& c : classify_conflicts(g)) {
    EXPECT_FALSE(c.outgoing);
    EXPECT_FALSE(c.income);
    EXPECT_EQ(c.dominant(), ConflictKind::kIncomeOutgo);
  }
}

TEST(ConflictGraph, ComponentsOfFig5) {
  const auto g = schemes::fig5_scheme();
  const ConflictGraph cg(g);
  const auto comps = cg.components();
  // Fig 5's six comms are all linked: a-b-c via node 0, a-d-e via node 1,
  // e-f via node 2 -> one component.
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 6u);
}

TEST(ConflictGraph, DisjointFansSplitIntoComponents) {
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 0, 2, 1.0);
  g.add("c", 5, 6, 1.0);
  g.add("d", 5, 7, 1.0);
  const ConflictGraph cg(g);
  const auto comps = cg.components();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], (std::vector<CommId>{0, 1}));
  EXPECT_EQ(comps[1], (std::vector<CommId>{2, 3}));
}

TEST(ConflictGraph, ComponentsOfFullyDisjointGraphAreSingletons) {
  // Pairwise-disjoint endpoints: every comm is its own component — the
  // shape the incremental engine's sparse-schedule fast path relies on.
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 2, 3, 1.0);
  g.add("c", 4, 5, 1.0);
  const ConflictGraph cg(g);
  const auto comps = cg.components();
  ASSERT_EQ(comps.size(), 3u);
  for (size_t i = 0; i < comps.size(); ++i)
    EXPECT_EQ(comps[i], std::vector<CommId>{static_cast<CommId>(i)});
}

TEST(ConflictGraph, ComponentsOfSingletonAndEmptyGraphs) {
  CommGraph one;
  one.add("a", 0, 1, 1.0);
  const ConflictGraph cg_one(one);
  ASSERT_EQ(cg_one.components().size(), 1u);
  EXPECT_EQ(cg_one.components()[0], std::vector<CommId>{0});

  const CommGraph empty;
  const ConflictGraph cg_empty(empty);
  EXPECT_TRUE(cg_empty.components().empty());
}

TEST(ConflictGraph, IntraNodeCommIsAlwaysASingletonComponent) {
  // Intra-node copies never conflict on the network, even when their node
  // also terminates network communications.
  CommGraph g;
  g.add("net", 0, 1, 1.0);
  g.add("shm", 0, 0, 1.0);
  const ConflictGraph cg(g);
  const auto comps = cg.components();
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0], std::vector<CommId>{0});
  EXPECT_EQ(comps[1], std::vector<CommId>{1});
}

TEST(ConflictGraph, DegreeCounts) {
  const auto g = schemes::outgoing_fan(4);
  const ConflictGraph cg(g);
  for (CommId i = 0; i < g.size(); ++i) EXPECT_EQ(cg.degree(i), 3);
}

TEST(StronglySlow, Fig4SetsMatchPaperReasoning) {
  const auto g = schemes::fig4_scheme();
  // Cm_o of a (source 0): among {a->1, b->2, c->3} the max Δi is node 3's
  // (c,e,f) = 3, reached by c only -> Cm_o = {c}, a not in it.
  const auto slow_a = strongly_slow_sets(g, *g.find("a"));
  EXPECT_EQ(slow_a.cm_o.size(), 1u);
  EXPECT_EQ(slow_a.cm_o[0], *g.find("c"));
  EXPECT_FALSE(slow_a.in_cm_o);
  // Cm_i of f (destination 3): among {c,e,f} the max Δo is c's 3 -> {c}.
  const auto slow_f = strongly_slow_sets(g, *g.find("f"));
  EXPECT_EQ(slow_f.cm_i.size(), 1u);
  EXPECT_EQ(slow_f.cm_i[0], *g.find("c"));
  EXPECT_FALSE(slow_f.in_cm_i);
  // c is strongly slow on both sides.
  const auto slow_c = strongly_slow_sets(g, *g.find("c"));
  EXPECT_TRUE(slow_c.in_cm_o);
  EXPECT_TRUE(slow_c.in_cm_i);
}

TEST(StronglySlow, SymmetricFanEveryoneStronglySlow) {
  const auto g = schemes::outgoing_fan(3);
  for (CommId i = 0; i < g.size(); ++i) {
    const auto slow = strongly_slow_sets(g, i);
    EXPECT_TRUE(slow.in_cm_o);
    EXPECT_EQ(slow.cm_o.size(), 3u);
  }
}

}  // namespace
}  // namespace bwshare::graph
