// The fluid substrate must reproduce the paper's fig-2 measured penalties
// (it replaces the physical clusters — see DESIGN.md §1).
#include "flowsim/fluid_network.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "graph/schemes.hpp"
#include "util/alloc_counter.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::flowsim {
namespace {

using graph::schemes::fig2_scheme;
using topo::gigabit_ethernet_calibration;
using topo::infiniband_calibration;
using topo::myrinet2000_calibration;

std::vector<double> penalties(int scheme, const topo::NetworkCalibration& cal) {
  return measure_penalties(fig2_scheme(scheme), cal);
}

// Fig-2 reports penalties in the fully saturated regime (all 20 MB streams
// concurrently active).
std::vector<double> sat(int scheme, const topo::NetworkCalibration& cal) {
  return saturated_penalties(fig2_scheme(scheme), cal);
}

TEST(FluidSubstrate, SingleCommHasNoPenalty) {
  for (const auto& cal :
       {gigabit_ethernet_calibration(), myrinet2000_calibration(),
        infiniband_calibration()}) {
    const auto p = penalties(1, cal);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_NEAR(p[0], 1.0, 0.01);
  }
}

TEST(FluidSubstrate, Fig2GigeColumn) {
  // Paper: S2 -> 1.5, 1.5; S3 -> 2.25 x3; S4 -> ~2.15 x3 and d = 1.15.
  const auto cal = gigabit_ethernet_calibration();
  for (double p : penalties(2, cal)) EXPECT_NEAR(p, 1.5, 0.03);
  for (double p : penalties(3, cal)) EXPECT_NEAR(p, 2.25, 0.04);
  const auto s4 = penalties(4, cal);
  EXPECT_NEAR(s4[0], 2.25, 0.1);  // paper 2.15
  EXPECT_NEAR(s4[3], 1.15, 0.05);  // d: fluid gives 1.125
}

TEST(FluidSubstrate, Fig2MyrinetColumn) {
  // Paper: S2 -> 1.9; S3 -> 2.8; S4 -> 2.8 x3, d = 1.45;
  // S5 -> a,b,c ~4.2-4.4, e ~2.5.
  const auto cal = myrinet2000_calibration();
  for (double p : penalties(2, cal)) EXPECT_NEAR(p, 1.9, 0.03);
  for (double p : penalties(3, cal)) EXPECT_NEAR(p, 2.8, 0.1);
  const auto s4 = penalties(4, cal);
  EXPECT_NEAR(s4[0], 2.8, 0.1);
  EXPECT_NEAR(s4[3], 1.45, 0.05);
  const auto s5 = sat(5, cal);
  EXPECT_NEAR(s5[0], 4.4, 0.15);  // a
  EXPECT_NEAR(s5[1], 4.4, 0.15);  // b (paper 4.2)
  EXPECT_NEAR(s5[4], 2.5, 0.1);   // e
}

TEST(FluidSubstrate, Fig2InfinibandColumn) {
  // Paper: S2 -> 1.725; S3 -> 2.61; S5 -> 3.66 x3 and e = 2.035.
  const auto cal = infiniband_calibration();
  for (double p : penalties(2, cal)) EXPECT_NEAR(p, 1.725, 0.03);
  for (double p : penalties(3, cal)) EXPECT_NEAR(p, 2.61, 0.05);
  const auto s5 = sat(5, cal);
  EXPECT_NEAR(s5[0], 3.663, 0.08);
  EXPECT_NEAR(s5[4], 2.035, 0.06);
}

TEST(FluidSubstrate, Fig2SharingOrderAcrossNetworks) {
  // Fig 2's headline observation: GigE shares best, Myrinet worst.
  for (int scheme = 2; scheme <= 3; ++scheme) {
    const double gige = penalties(scheme, gigabit_ethernet_calibration())[0];
    const double ib = penalties(scheme, infiniband_calibration())[0];
    const double myri = penalties(scheme, myrinet2000_calibration())[0];
    EXPECT_LT(gige, ib);
    EXPECT_LT(ib, myri);
  }
}

TEST(FluidSubstrate, Fig2Scheme6WeakConflict) {
  // f:6->3 only shares node 3 with c; its penalty stays close to 1.
  for (const auto& cal :
       {gigabit_ethernet_calibration(), myrinet2000_calibration(),
        infiniband_calibration()}) {
    const auto p = penalties(6, cal);
    EXPECT_LT(p[5], 1.5) << to_string(cal.tech);
    EXPECT_GT(p[0], 2.5) << to_string(cal.tech);
  }
}

TEST(FluidSubstrate, RingIsConflictFree) {
  // One task per node, each sends to its successor: full-duplex links mean
  // no sharing, so every comm runs at reference speed... except the duplex
  // bus, which charges hosts that both send and receive.
  const auto cal = myrinet2000_calibration();
  graph::CommGraph g;
  for (int i = 0; i < 6; ++i) g.add(i, (i + 1) % 6, 4e6);
  const auto p = measure_penalties(g, cal);
  for (double v : p) {
    EXPECT_GE(v, 0.99);
    // duplex factor 1.03 with rx weight: modest slowdown allowed
    EXPECT_LT(v, 2.0);
  }
}

TEST(FluidSubstrate, IntraNodeUsesSharedMemory) {
  graph::CommGraph g;
  g.add("shm", 0, 0, 8e6);
  g.add("net", 0, 1, 8e6);
  const auto cal = gigabit_ethernet_calibration();
  const auto times = measure_scheme_fluid(g, cal);
  // Shared-memory copy is much faster than the network transfer.
  EXPECT_LT(times[0], times[1] / 5.0);
}

TEST(FluidSubstrate, TimesScaleLinearlyWithSize) {
  const auto cal = infiniband_calibration();
  const auto t1 = measure_scheme_fluid(graph::schemes::outgoing_fan(3, 2e6), cal);
  const auto t2 = measure_scheme_fluid(graph::schemes::outgoing_fan(3, 4e6), cal);
  for (size_t i = 0; i < t1.size(); ++i)
    EXPECT_NEAR(t2[i] / t1[i], 2.0, 0.01);
}

TEST(FluidSubstrate, BuildProblemShape) {
  const FluidRateProvider provider(gigabit_ethernet_calibration());
  const auto g = fig2_scheme(5);
  const auto problem = provider.build_problem(g);
  EXPECT_EQ(problem.num_flows, 5);
  // e (rx at the duplex-conflicted node 0) carries the RX weight.
  const auto e = g.find("e");
  ASSERT_TRUE(e.has_value());
  EXPECT_GT(problem.weights[static_cast<size_t>(*e)], 1.0);
  // a keeps weight 1.
  EXPECT_DOUBLE_EQ(problem.weights[0], 1.0);
}

TEST(FluidSubstrate, MeasureSchemeIgnoresLabels) {
  // Labels are for display: the same scheme with its labels stripped
  // measures to the same bits.
  const auto labeled = fig2_scheme(4);
  graph::CommGraph unlabeled;
  for (graph::CommId i = 0; i < labeled.size(); ++i) {
    const auto& c = labeled.comm(i);
    unlabeled.add(c.src, c.dst, c.bytes);
  }
  ASSERT_FALSE(labeled.label(0).empty());
  ASSERT_TRUE(unlabeled.label(0).empty());
  for (const auto& cal : {gigabit_ethernet_calibration(),
                          myrinet2000_calibration(),
                          infiniband_calibration()}) {
    const auto a = measure_scheme_fluid(labeled, cal);
    const auto b = measure_scheme_fluid(unlabeled, cal);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
  }
}

TEST(FluidSubstrate, EmptyGraph) {
  const graph::CommGraph g;
  EXPECT_TRUE(measure_scheme_fluid(g, gigabit_ethernet_calibration()).empty());
}

// --- the arena-backed rates_into hot path ----------------------------------

// A random graph in the regime the engine hands the provider: several
// overlapping arcs over a small node set, so host-bus resources have
// multi-flow member lists, plus the odd intra-node copy on the shm engine.
graph::CommGraph random_graph(Rng& rng, int nodes, int comms) {
  graph::CommGraph g;
  for (int i = 0; i < comms; ++i) {
    const int src = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    int dst = static_cast<int>(rng.below(static_cast<uint64_t>(nodes)));
    if (dst == src && rng.below(4) != 0) dst = (src + 1) % nodes;
    g.add(src, dst, 1e6 + static_cast<double>(rng.below(20000000)));
  }
  return g;
}

// rates() is a wrapper over rates_into(), so the independent reference for
// the arena path is build_problem()'s map-based construction, solved by
// max_min_rates().
void expect_rates_into_matches_build_problem(const FluidRateProvider& provider,
                                             const graph::CommGraph& g,
                                             util::Arena& arena, int iter) {
  const std::vector<double> reference =
      max_min_rates(provider.build_problem(g));
  std::vector<double> out(static_cast<size_t>(g.size()), -1.0);
  util::Arena::Frame frame(arena);
  provider.rates_into(g, arena, out);
  ASSERT_EQ(out.size(), reference.size());
  for (size_t i = 0; i < out.size(); ++i)
    ASSERT_EQ(out[i], reference[i])  // bitwise, not approximate
        << "iter " << iter << " comm " << i;
}

TEST(FluidSubstrate, RatesIntoMatchesBuildProblemBitwise) {
  const FluidRateProvider provider(gigabit_ethernet_calibration());
  util::Arena arena;
  Rng rng(99);
  for (int iter = 0; iter < 100; ++iter) {
    const auto g = random_graph(rng, 2 + static_cast<int>(rng.below(8)),
                                1 + static_cast<int>(rng.below(12)));
    expect_rates_into_matches_build_problem(provider, g, arena, iter);
  }
}

// Myrinet and InfiniBand hosts have a duplex factor above 1 and heavier RX
// weights than GigE, which changes where a host bus saturates and how much
// an incoming flow weighs on it; the arena path must follow both.
TEST(FluidSubstrate, RatesIntoMatchesBuildProblemUnderMyrinet) {
  const FluidRateProvider provider(myrinet2000_calibration());
  util::Arena arena;
  Rng rng(7);
  for (int iter = 0; iter < 100; ++iter) {
    const auto g = random_graph(rng, 2 + static_cast<int>(rng.below(8)),
                                1 + static_cast<int>(rng.below(16)));
    expect_rates_into_matches_build_problem(provider, g, arena, iter);
  }
}

TEST(FluidSubstrate, RatesIntoMatchesBuildProblemUnderInfiniband) {
  const FluidRateProvider provider(infiniband_calibration());
  util::Arena arena;
  Rng rng(13);
  for (int iter = 0; iter < 100; ++iter) {
    const auto g = random_graph(rng, 2 + static_cast<int>(rng.below(8)),
                                1 + static_cast<int>(rng.below(16)));
    expect_rates_into_matches_build_problem(provider, g, arena, iter);
  }
}

TEST(FluidSubstrate, RatesIntoIsAllocationFreeOnceWarm) {
  const FluidRateProvider provider(gigabit_ethernet_calibration());
  util::Arena arena;
  const auto g = fig2_scheme(5);
  std::vector<double> out(static_cast<size_t>(g.size()));
  {
    util::Arena::Frame frame(arena);
    provider.rates_into(g, arena, out);  // warm-up may grow the arena
  }
  arena.reset();
  const uint64_t a0 = util::alloc_count();
  for (int rep = 0; rep < 8; ++rep) {
    util::Arena::Frame frame(arena);
    provider.rates_into(g, arena, out);
  }
  EXPECT_EQ(util::alloc_count(), a0);
}

TEST(FluidSubstrate, BaseClassRatesIntoFallbackMatchesRates) {
  // A provider that overrides only the vector API exercises the documented
  // base default: forward to rates() and copy. Correct, just allocating.
  class Doubler final : public RateProvider {
   public:
    [[nodiscard]] std::vector<double> rates(
        const graph::CommGraph& active) const override {
      std::vector<double> r(static_cast<size_t>(active.size()));
      for (graph::CommId i = 0; i < active.size(); ++i)
        r[static_cast<size_t>(i)] = 2.0 * static_cast<double>(i + 1);
      return r;
    }
  };
  const Doubler provider;
  util::Arena arena;
  graph::CommGraph g;
  g.add(0, 1, 1.0);
  g.add(1, 2, 1.0);
  g.add(2, 0, 1.0);
  std::vector<double> out(3, -1.0);
  provider.rates_into(g, arena, out);
  const auto reference = provider.rates(g);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], reference[i]);
}

}  // namespace
}  // namespace bwshare::flowsim
