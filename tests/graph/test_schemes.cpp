#include "graph/schemes.hpp"

#include <gtest/gtest.h>

#include <set>

#include "graph/dot.hpp"
#include "util/error.hpp"

namespace bwshare::graph {
namespace {

TEST(Schemes, Fig2Progression) {
  for (int k = 1; k <= 6; ++k) {
    const auto g = schemes::fig2_scheme(k);
    EXPECT_EQ(g.size(), k) << "scheme S" << k;
  }
  EXPECT_THROW(schemes::fig2_scheme(0), Error);
  EXPECT_THROW(schemes::fig2_scheme(7), Error);
}

TEST(Schemes, Fig2SchemesNest) {
  // S(k) is S(k-1) plus one communication.
  for (int k = 2; k <= 6; ++k) {
    const auto small = schemes::fig2_scheme(k - 1);
    const auto large = schemes::fig2_scheme(k);
    for (CommId i = 0; i < small.size(); ++i) {
      EXPECT_EQ(small.label(i), large.label(i));
      EXPECT_EQ(small.comm(i).src, large.comm(i).src);
      EXPECT_EQ(small.comm(i).dst, large.comm(i).dst);
    }
  }
}

TEST(Schemes, Fig4DegreesSupportGammaEstimation) {
  const auto g = schemes::fig4_scheme();
  EXPECT_EQ(g.size(), 6);
  // The estimation equations need Δo(node 0) = 3 and Δi(node 3) = 3.
  EXPECT_EQ(g.out_degree(0), 3);
  EXPECT_EQ(g.in_degree(3), 3);
}

TEST(Schemes, Mk1IsATree) {
  const auto g = schemes::mk1_tree();
  EXPECT_EQ(g.size(), 7);
  EXPECT_EQ(g.num_nodes(), 8);
  // 7 edges on 8 nodes and connected (ignoring direction) == tree.
  std::vector<int> parent(8);
  for (int i = 0; i < 8; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  int merges = 0;
  for (CommId i = 0; i < g.size(); ++i) {
    const auto& c = g.comm(i);
    const int a = find(c.src);
    const int b = find(c.dst);
    ASSERT_NE(a, b) << "cycle through comm " << g.label(i);
    parent[a] = b;
    ++merges;
  }
  EXPECT_EQ(merges, 7);
}

TEST(Schemes, Mk2IsCompleteOnFiveNodes) {
  const auto g = schemes::mk2_complete();
  EXPECT_EQ(g.size(), 10);
  EXPECT_EQ(g.num_nodes(), 5);
  std::set<std::pair<int, int>> pairs;
  for (CommId i = 0; i < g.size(); ++i) {
    const auto& c = g.comm(i);
    const auto pair = std::minmax(c.src, c.dst);
    EXPECT_TRUE(pairs.emplace(pair.first, pair.second).second)
        << "duplicate pair " << g.label(i);
  }
  EXPECT_EQ(pairs.size(), 10u);  // C(5,2)
}

TEST(Schemes, Fans) {
  const auto out = schemes::outgoing_fan(3, 1e6);
  EXPECT_EQ(out.out_degree(0), 3);
  EXPECT_EQ(out.in_degree(1), 1);
  const auto in = schemes::incoming_fan(3, 1e6);
  EXPECT_EQ(in.in_degree(0), 3);
  EXPECT_THROW(schemes::outgoing_fan(0), Error);
}

TEST(Dot, ExportMentionsEveryCommAndNode) {
  const auto g = schemes::fig5_scheme();
  const auto dot = to_dot(g, {{"a", "p=5"}});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(dot.find("p=5"), std::string::npos);
  for (CommId i = 0; i < g.size(); ++i) {
    const std::string label(g.label(i));
    EXPECT_NE(dot.find("\"" + label), std::string::npos) << label;
  }
}

}  // namespace
}  // namespace bwshare::graph
