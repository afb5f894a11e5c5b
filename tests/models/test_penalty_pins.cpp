// Bitwise pins of every model's penalties() against an independent
// reference evaluation, on generated graphs with intra-node copies and
// folded (shared) nodes mixed in:
//   - GigE against GigabitEthernetModel::breakdown(), which evaluates one
//     communication at a time through graph::strongly_slow_sets;
//   - Myrinet against MyrinetModel::analyze(), which enumerates over the
//     dense graph::ConflictGraph and materializes every set; under a small
//     max_state_sets budget, penalties() throws exactly where analyze()
//     stops at the budget;
//   - InfiniBand and Kim–Lee against per-communication transcriptions of
//     their formulas over CommGraph::out_degree/in_degree, written here;
//   - ModelRateProvider::rates_into against reference_bandwidth / penalty.
// "Bitwise" means equal bit patterns, not equal within a tolerance: the
// simulator's replays are compared bit for bit downstream.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/comm_graph.hpp"
#include "graph/generator.hpp"
#include "models/baselines.hpp"
#include "models/gige.hpp"
#include "models/infiniband.hpp"
#include "models/myrinet.hpp"
#include "models/registry.hpp"
#include "sim/rate_model.hpp"
#include "topo/network.hpp"
#include "util/alloc_counter.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::models {
namespace {

using graph::CommGraph;
using graph::CommId;
using graph::SchemeFamily;

// A generated scheme folded onto nodes/fold nodes — arcs whose endpoints
// fold together become intra-node copies, and the survivors share nodes
// more densely — with extra intra-node copies sprinkled in between.
CommGraph mixed_graph(SchemeFamily family, int nodes, int fold,
                      uint64_t seed) {
  graph::GeneratorSpec spec;
  spec.family = family;
  spec.nodes = nodes;
  spec.spread = 1.0;
  const CommGraph base = graph::generate_scheme(spec, seed);
  const int folded = std::max(2, nodes / fold);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  CommGraph g;
  for (const auto& c : base.comms()) {
    g.add(c.src % folded, c.dst % folded, c.bytes);
    if (rng.uniform() < 0.1) {
      const auto v = static_cast<topo::NodeId>(
          rng.below(static_cast<uint64_t>(folded)));
      g.add(v, v, c.bytes);
    }
  }
  return g;
}

// Node counts per family giving up to ~150 flows (alltoall caps at 8
// nodes, 56 arcs).
int max_nodes(SchemeFamily family, int max_flows) {
  switch (family) {
    case SchemeFamily::kRing: return max_flows;
    case SchemeFamily::kHotspot: return max_flows + 1;
    case SchemeFamily::kUniformRandom: return max_flows / 2;
    case SchemeFamily::kAllToAll: return 8;
  }
  return 2;
}

// The corpus: node counts ramping from 2 to the family's maximum, each
// unfolded, folded by 2 and folded by 3.
std::vector<CommGraph> corpus(SchemeFamily family, int max_flows) {
  const int top = std::min(max_nodes(family, max_flows), 256);
  std::vector<CommGraph> graphs;
  uint64_t seed = 1;
  for (int nodes = 2; nodes <= top; nodes += std::max(1, top / 12)) {
    for (const int fold : {1, 2, 3}) graphs.push_back(
        mixed_graph(family, nodes, fold, seed++));
  }
  return graphs;
}

void expect_bitwise(const std::vector<double>& actual,
                    const std::vector<double>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i)
    EXPECT_EQ(std::bit_cast<uint64_t>(actual[i]),
              std::bit_cast<uint64_t>(expected[i]))
        << "comm " << i << ": " << actual[i] << " vs " << expected[i];
}

std::vector<double> infiniband_reference(const CommGraph& g,
                                         const InfinibandParams& prm) {
  std::vector<double> out(static_cast<size_t>(g.size()), 1.0);
  for (CommId i = 0; i < g.size(); ++i) {
    if (g.is_intra_node(i)) continue;
    const auto& c = g.comm(i);
    const int out_src = g.out_degree(c.src);
    const int in_src = g.in_degree(c.src);
    const int in_dst = g.in_degree(c.dst);
    const int out_dst = g.out_degree(c.dst);
    double p_src;
    if (in_src == 0) {
      p_src = out_src <= 1 ? 1.0 : prm.beta * out_src;
    } else {
      p_src = prm.beta * (out_src + prm.rx_weight * in_src) /
              prm.duplex_factor;
    }
    double p_dst;
    if (out_dst == 0) {
      p_dst = in_dst <= 1 ? 1.0 : prm.beta * in_dst;
    } else {
      p_dst = prm.beta * (prm.rx_weight * in_dst + out_dst) /
              (prm.duplex_factor * prm.rx_weight);
    }
    out[static_cast<size_t>(i)] = std::max(1.0, std::max(p_src, p_dst));
  }
  return out;
}

std::vector<double> kimlee_reference(const CommGraph& g) {
  std::vector<double> out(static_cast<size_t>(g.size()), 1.0);
  for (CommId i = 0; i < g.size(); ++i) {
    if (g.is_intra_node(i)) continue;
    out[static_cast<size_t>(i)] = std::max(1, std::max(g.delta_o(i),
                                                       g.delta_i(i)));
  }
  return out;
}

std::string family_name(
    const ::testing::TestParamInfo<SchemeFamily>& info) {
  return graph::to_string(info.param);
}

const auto kFamilies =
    ::testing::Values(SchemeFamily::kRing, SchemeFamily::kHotspot,
                      SchemeFamily::kUniformRandom, SchemeFamily::kAllToAll);

class PenaltyPins : public ::testing::TestWithParam<SchemeFamily> {};

TEST_P(PenaltyPins, GigeMatchesBreakdownBitwise) {
  const GigabitEthernetModel model;
  for (const auto& g : corpus(GetParam(), 150)) {
    SCOPED_TRACE(::testing::Message() << g.size() << " comms");
    std::vector<double> expected;
    for (CommId i = 0; i < g.size(); ++i)
      expected.push_back(model.breakdown(g, i).penalty);
    expect_bitwise(model.penalties(g), expected);
  }
}

TEST_P(PenaltyPins, InfinibandMatchesDegreeFormulaBitwise) {
  const InfinibandModel model;
  for (const auto& g : corpus(GetParam(), 150)) {
    SCOPED_TRACE(::testing::Message() << g.size() << " comms");
    expect_bitwise(model.penalties(g),
                   infiniband_reference(g, model.params()));
  }
}

TEST_P(PenaltyPins, KimLeeMatchesDegreeFormulaBitwise) {
  const KimLeeModel model;
  for (const auto& g : corpus(GetParam(), 150)) {
    SCOPED_TRACE(::testing::Message() << g.size() << " comms");
    expect_bitwise(model.penalties(g), kimlee_reference(g));
  }
}

TEST_P(PenaltyPins, RatesIntoIsReferenceBandwidthOverPenalty) {
  const auto cal = topo::gigabit_ethernet_calibration();
  util::Arena arena;
  for (const auto& name : model_names()) {
    SCOPED_TRACE(name);
    const sim::ModelRateProvider provider(make_model(name), cal);
    for (const auto& g : corpus(GetParam(), name == "myrinet" ? 40 : 150)) {
      SCOPED_TRACE(::testing::Message() << g.size() << " comms");
      const auto p = provider.model().penalties(g);
      std::vector<double> expected(p.size());
      for (CommId i = 0; i < g.size(); ++i) {
        const double ref = g.is_intra_node(i) ? cal.shm_bandwidth
                                              : cal.reference_bandwidth();
        expected[static_cast<size_t>(i)] = ref / p[static_cast<size_t>(i)];
      }
      std::vector<double> out(p.size());
      provider.rates_into(g, arena, out);
      expect_bitwise(out, expected);
    }
  }
}

TEST_P(PenaltyPins, MyrinetMatchesAnalyzeBitwise) {
  const MyrinetModel model;
  for (const auto& g : corpus(GetParam(), 40)) {
    SCOPED_TRACE(::testing::Message() << g.size() << " comms");
    expect_bitwise(model.penalties(g), model.analyze(g).penalty);
  }
}

TEST_P(PenaltyPins, MyrinetCappedEnumerationMatchesAnalyzeBitwise) {
  // A budget below a component's state-set count stops the enumeration
  // there. penalties() must throw exactly where analyze() reports the
  // enumeration incomplete, and elsewhere equal analyze()'s bitwise.
  int truncated = 0;
  for (const size_t cap : {1u, 3u, 7u}) {
    MyrinetParams params;
    params.max_state_sets = cap;
    const MyrinetModel model(params);
    for (const auto& g : corpus(GetParam(), 40)) {
      SCOPED_TRACE(::testing::Message() << g.size() << " comms, cap " << cap);
      const auto reference = model.analyze(g);
      if (reference.complete) {
        expect_bitwise(model.penalties(g), reference.penalty);
        continue;
      }
      ++truncated;
      EXPECT_THROW((void)model.penalties(g), Error);
    }
  }
  EXPECT_GT(truncated, 0) << "no corpus graph reached the cap";
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PenaltyPins, kFamilies, family_name);

TEST(PenaltiesInto, IsAllocationFreeOnAWarmArena) {
  util::Arena arena;
  for (const auto& name : model_names()) {
    const auto model = make_model(name);
    for (const auto family :
         {SchemeFamily::kHotspot, SchemeFamily::kUniformRandom}) {
      const auto g = mixed_graph(family, 24, 2, 5);
      std::vector<double> out(static_cast<size_t>(g.size()));
      model->penalties_into(g, arena, out);  // warm-up
      const uint64_t before = util::alloc_count();
      model->penalties_into(g, arena, out);
      EXPECT_EQ(util::alloc_count() - before, 0u)
          << name << " on " << graph::to_string(family);
    }
  }
}

}  // namespace
}  // namespace bwshare::models
