#include "graph/comm_graph.hpp"

#include <string>

#include <gtest/gtest.h>

#include "graph/dot.hpp"
#include "util/alloc_counter.hpp"
#include "util/error.hpp"

namespace bwshare::graph {
namespace {

TEST(CommGraph, AddAndQuery) {
  CommGraph g;
  const CommId a = g.add("a", 0, 1, 20e6);
  const CommId b = g.add("b", 0, 2, 4e6);
  EXPECT_EQ(g.size(), 2);
  EXPECT_EQ(g.label(a), "a");
  EXPECT_DOUBLE_EQ(g.comm(b).bytes, 4e6);
  EXPECT_EQ(g.num_nodes(), 3);
}

TEST(CommGraph, FindByLabel) {
  CommGraph g;
  g.add("x", 0, 1, 1.0);
  EXPECT_TRUE(g.find("x").has_value());
  EXPECT_FALSE(g.find("y").has_value());
}

TEST(CommGraph, DuplicateLabelRejected) {
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  EXPECT_THROW(g.add("a", 2, 3, 1.0), Error);
}

TEST(CommGraph, Degrees) {
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 0, 2, 1.0);
  g.add("c", 3, 1, 1.0);
  EXPECT_EQ(g.out_degree(0), 2);
  EXPECT_EQ(g.in_degree(1), 2);
  EXPECT_EQ(g.in_degree(0), 0);
  EXPECT_EQ(g.delta_o(*g.find("a")), 2);
  EXPECT_EQ(g.delta_i(*g.find("a")), 2);
  EXPECT_EQ(g.delta_i(*g.find("b")), 1);
}

TEST(CommGraph, IntraNodeExcludedFromDegrees) {
  CommGraph g;
  g.add("shm", 1, 1, 1.0);
  g.add("a", 1, 2, 1.0);
  EXPECT_EQ(g.out_degree(1), 1);  // shm does not count
  EXPECT_TRUE(g.is_intra_node(*g.find("shm")));
  EXPECT_FALSE(g.is_intra_node(*g.find("a")));
}

TEST(CommGraph, SameSourceAndDestinationSets) {
  CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 0, 2, 1.0);
  g.add("c", 3, 1, 1.0);
  const auto co = g.same_source(*g.find("a"));
  EXPECT_EQ(co.size(), 2u);  // a and b
  const auto ci = g.same_destination(*g.find("a"));
  EXPECT_EQ(ci.size(), 2u);  // a and c
}

TEST(CommGraph, Validation) {
  CommGraph g;
  EXPECT_THROW(g.add("", 0, 1, 1.0), Error);
  EXPECT_THROW(g.add("a", -1, 1, 1.0), Error);
  EXPECT_THROW(g.add("a", 0, 1, -5.0), Error);
  EXPECT_THROW((void)g.comm(0), Error);
}

// --- label interning + the unlabelled hot path -----------------------------

TEST(CommGraph, UnlabelledAddHasEmptyLabelButFullStructure) {
  CommGraph g;
  const CommId a = g.add(0, 1, 3e6);
  const CommId b = g.add(1, 2, 5e6);
  EXPECT_EQ(g.size(), 2);
  EXPECT_EQ(g.label(a), "");
  EXPECT_EQ(g.label(b), "");
  EXPECT_DOUBLE_EQ(g.comm(a).bytes, 3e6);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.out_degree(1), 1);
  EXPECT_EQ(g.in_degree(1), 1);
  // Unlabelled comms are never indexed: validation still applies.
  EXPECT_THROW(g.add(-1, 0, 1.0), Error);
  EXPECT_THROW(g.add(0, 1, -1.0), Error);
}

TEST(CommGraph, LabelledAndUnlabelledAddsInterleave) {
  CommGraph g;
  const CommId a = g.add(0, 1, 1.0);           // unlabelled first
  const CommId b = g.add("named", 1, 2, 2.0);  // label backfills ""s
  const CommId c = g.add(2, 3, 3.0);
  EXPECT_EQ(g.label(a), "");
  EXPECT_EQ(g.label(b), "named");
  EXPECT_EQ(g.label(c), "");
  EXPECT_EQ(g.find("named"), b);
  // Duplicate detection keys on interned labels only.
  EXPECT_THROW(g.add("named", 4, 5, 1.0), Error);
}

TEST(CommGraph, LabelRoundTripSurvivesInterning) {
  CommGraph g;
  const std::string fancy = "ring[3->4]@step7";
  const CommId id = g.add(fancy, 3, 4, 9.0);
  EXPECT_EQ(g.label(id), fancy);
  ASSERT_TRUE(g.find(fancy).has_value());
  EXPECT_EQ(*g.find(fancy), id);
  const auto& c = g.comm(*g.find(fancy));
  EXPECT_EQ(c.src, 3);
  EXPECT_EQ(c.dst, 4);
}

TEST(CommGraph, ClearKeepsCapacityAndDropsLabels) {
  CommGraph g;
  g.reserve(8);
  for (int i = 0; i < 8; ++i) g.add(i, i + 1, 1.0);
  g.clear();
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.num_nodes(), 0);
  // A warmed scratch graph refills without touching the allocator — the
  // engine rebuilds one per component solve on the hot path.
  const uint64_t a0 = util::alloc_count();
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < 8; ++i) g.add(i, i + 1, 1.0);
    g.clear();
  }
  EXPECT_EQ(util::alloc_count(), a0);
}

TEST(CommGraph, DotOutputUsesInternedLabels) {
  CommGraph g;
  g.add("east", 0, 1, 1.0);
  g.add(1, 2, 2.0);  // unlabelled arcs render with an empty label
  const std::string dot = to_dot(g, {{"east", "10 MB"}});
  EXPECT_NE(dot.find("n0 -> n1 [label=\"east\\n10 MB\"];"),
            std::string::npos);
  EXPECT_NE(dot.find("n1 -> n2 [label=\"\"];"), std::string::npos);
}

}  // namespace
}  // namespace bwshare::graph
