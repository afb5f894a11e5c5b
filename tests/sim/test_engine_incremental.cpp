// The incremental component-scoped rate refresh under EngineConfig::verify
// (docs/PERFORMANCE.md): after every flush a verify replay re-solves the
// whole active set as one unrestricted problem and throws if any cached
// component rate drifts beyond 1e-9 relative; it must otherwise be
// bit-identical to the default replay. Fuzzed over randomized schedules
// from every graph::generator family under the fluid, gige-model and
// myrinet-model providers, with and without fat-tree inner-link coupling,
// plus the provider entry points themselves.
#include <cstdint>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/fattree.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

/// Default vs verify on one maximally concurrent scheme under one provider.
void check_scheme(const graph::CommGraph& scheme,
                  const flowsim::RateProvider& provider,
                  const topo::NetworkCalibration& cal) {
  const auto trace = trace_from_scheme(scheme);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster =
      topo::ClusterSpec::uniform("equiv", scheme.num_nodes(), 1, cal);
  expect_verify_matches_default(trace, cluster,
                                identity_placement(scheme.num_nodes()),
                                provider);
}

class GeneratedSchemes
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(GeneratedSchemes, FluidProviderPassesVerify) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(cal);
  check_scheme(scheme, provider, cal);
}

TEST_P(GeneratedSchemes, GigeModelProviderPassesVerify) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  check_scheme(scheme, provider, cal);
}

TEST_P(GeneratedSchemes, MyrinetModelProviderPassesVerify) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::myrinet2000_calibration();
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  check_scheme(scheme, provider, cal);
}

TEST_P(GeneratedSchemes, FatTreeCoupledFluidPassesVerify) {
  // An oversubscribed two-level tree: inner links constrain and *couple*
  // conflict components that share no endpoint. The engine must merge them
  // via RateProvider::coupling_keys for the per-component solve to stay
  // exact.
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  topo::FatTree::Params params;
  params.num_hosts = scheme.num_nodes();
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;  // 2:1 oversubscription per edge uplink
  params.num_core = 1;
  const flowsim::FluidRateProvider provider(cal, topo::FatTree(params));
  check_scheme(scheme, provider, cal);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, GeneratedSchemes,
    ::testing::Combine(::testing::Values("ring:nodes=8",
                                         "hotspot:nodes=9,bytes=2M",
                                         "random:nodes=10,comms=18,spread=1",
                                         "alltoall:nodes=4"),
                       ::testing::Values(1u, 2u, 3u)));

// Staggered schedules: random compute bursts, eager and rendezvous sizes,
// non-blocking patterns and multi-core placements (intra-node comms share
// the per-node shm engine — a coupling the conflict graph alone misses).
class StaggeredFuzz : public ::testing::TestWithParam<int> {};

TEST_P(StaggeredFuzz, VerifyReplayIsBitIdenticalOnRandomTraces) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7777777 + 5);
  const int tasks = 4 + static_cast<int>(rng.below(5));
  AppTrace trace(tasks);
  const int rounds = 2 + static_cast<int>(rng.below(3));
  for (int round = 0; round < rounds; ++round) {
    for (TaskId src = 0; src < tasks; ++src) {
      if (rng.uniform() < 0.35) continue;
      TaskId dst = static_cast<TaskId>(rng.below(static_cast<uint64_t>(tasks)));
      if (dst == src) dst = (dst + 1) % tasks;
      const double bytes = rng.uniform() < 0.3 ? 1e3 : rng.uniform(2e5, 6e6);
      trace.push(dst, Event::irecv(src, bytes));
      if (rng.uniform() < 0.5) {
        trace.push(src, Event::isend(dst, bytes));
        trace.push(src, Event::wait_all());
      } else {
        trace.push(src, Event::send(dst, bytes));
      }
    }
    for (TaskId t = 0; t < tasks; ++t) {
      if (rng.uniform() < 0.5)
        trace.push(t, Event::compute(rng.uniform(0.0, 0.02)));
      trace.push(t, Event::wait_all());
    }
    if (rng.uniform() < 0.4) trace.push_barrier_all();
  }
  ASSERT_NO_THROW(trace.validate());

  const auto cluster = topo::ClusterSpec::uniform(
      "fuzz", (tasks + 1) / 2, 2, topo::myrinet2000_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  expect_verify_matches_default(trace, cluster, placement, provider);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaggeredFuzz, ::testing::Range(0, 12));

TEST(VerifyOracle, CatchesAComponentSolveThatDisagreesWithTheWholeSet) {
  // A provider that breaks component locality: every flow's rate depends on
  // how many flows the solved graph holds. The engine solves each disjoint
  // pair alone, so only the verify oracle's whole-set re-solve can notice.
  class CountingProvider final : public flowsim::RateProvider {
   public:
    using flowsim::RateProvider::rates;
    [[nodiscard]] std::vector<double> rates(
        const graph::CommGraph& active) const override {
      return std::vector<double>(static_cast<size_t>(active.size()),
                                 1e8 / static_cast<double>(active.size()));
    }
  };
  graph::CommGraph scheme;
  for (int v = 0; v < 8; v += 2) scheme.add(v, v + 1, 4e6);
  const auto trace = trace_from_scheme(scheme);
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster = topo::ClusterSpec::uniform("lying", 8, 1, cal);
  const auto placement = identity_placement(8);
  const CountingProvider provider;
  EngineConfig cfg;
  EXPECT_NO_THROW(
      (void)run_simulation(trace, cluster, placement, provider, cfg));
  cfg.verify = true;
  EXPECT_THROW((void)run_simulation(trace, cluster, placement, provider, cfg),
               Error);
}

// --- provider entry points -------------------------------------------------

TEST(RateProviderSubset, ModelProviderInducedSolveMatchesProjection) {
  // Two disjoint fans: each is endpoint-closed, so the restricted solve
  // must reproduce the full solve's rates exactly.
  graph::CommGraph g;
  g.add("a", 0, 1, 4e6);
  g.add("b", 0, 2, 4e6);
  g.add("c", 5, 6, 4e6);
  g.add("d", 5, 7, 4e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  const auto all = provider.rates(g);
  const std::vector<graph::CommId> left{0, 1};
  const std::vector<graph::CommId> right{2, 3};
  const auto left_rates = provider.rates(g, left);
  const auto right_rates = provider.rates(g, right);
  ASSERT_EQ(left_rates.size(), 2u);
  ASSERT_EQ(right_rates.size(), 2u);
  EXPECT_DOUBLE_EQ(left_rates[0], all[0]);
  EXPECT_DOUBLE_EQ(left_rates[1], all[1]);
  EXPECT_DOUBLE_EQ(right_rates[0], all[2]);
  EXPECT_DOUBLE_EQ(right_rates[1], all[3]);
}

TEST(RateProviderSubset, NonClosedSubsetsAreExpandedToClosure) {
  // A subset that is not endpoint-closed ({a} from the fan {a, b} sharing
  // source 0) must still yield the full solve's rates, never a solve of `a`
  // in isolation.
  graph::CommGraph g;
  g.add("a", 0, 1, 4e6);
  g.add("b", 0, 2, 4e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  const std::vector<graph::CommId> lone{0};

  const flowsim::FluidRateProvider fluid(cal);
  EXPECT_DOUBLE_EQ(fluid.rates(g, lone)[0], fluid.rates(g)[0]);
  // Sanity: the shared TX link halves the rate, so an isolated solve of
  // comm a alone would have returned something strictly larger.
  graph::CommGraph solo;
  solo.add("a", 0, 1, 4e6);
  EXPECT_LT(fluid.rates(g)[0], fluid.rates(solo)[0]);

  const ModelRateProvider gige(models::make_model("gige"), cal);
  EXPECT_DOUBLE_EQ(gige.rates(g, lone)[0], gige.rates(g)[0]);
  EXPECT_LT(gige.rates(g)[0], gige.rates(solo)[0]);
}

TEST(RateProviderSubset, FluidMergesTopologyCoupledComponents) {
  // Hosts 0->4 and 1->5 share no endpoint but cross the same oversubscribed
  // edge-to-core uplink: a subset holding only one of them must still see
  // the other, never be solved in isolation.
  const auto cal = topo::gigabit_ethernet_calibration();
  topo::FatTree::Params params;
  params.num_hosts = 8;
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;
  params.num_core = 1;
  const flowsim::FluidRateProvider provider(cal, topo::FatTree(params));

  graph::CommGraph g;
  g.add("a", 0, 4, 4e6);
  g.add("b", 1, 5, 4e6);
  const auto all = provider.rates(g);
  const std::vector<graph::CommId> lone{0};
  const auto restricted = provider.rates(g, lone);
  ASSERT_EQ(restricted.size(), 1u);
  EXPECT_DOUBLE_EQ(restricted[0], all[0]);
  // Sanity: the shared uplink really constrains (each flow gets half of the
  // 0.5x-capacity trunk, i.e. less than its solo single-stream rate).
  graph::CommGraph solo;
  solo.add("a", 0, 4, 4e6);
  EXPECT_LT(all[0], provider.rates(solo)[0]);
}

TEST(RateProviderSubset, FluidCouplingKeysListInnerLinksOnly) {
  const auto cal = topo::gigabit_ethernet_calibration();
  topo::FatTree::Params params;
  params.num_hosts = 8;
  params.radix = 4;
  params.host_bandwidth = cal.link_bandwidth;
  params.uplink_factor = 0.5;
  params.num_core = 1;
  const topo::FatTree tree(params);
  const flowsim::FluidRateProvider coupled(cal, tree);
  // Cross-edge route: host uplink + edge-up + edge-down + host downlink;
  // only the two inner hops are coupling keys.
  EXPECT_EQ(coupled.coupling_keys(0, 4).size(), 2u);
  // Same-edge route never leaves the edge switch: no inner links.
  EXPECT_TRUE(coupled.coupling_keys(0, 1).empty());
  // Intra-node traffic bypasses the NIC entirely.
  EXPECT_TRUE(coupled.coupling_keys(3, 3).empty());
  // Without a topology there is nothing beyond the endpoint hosts.
  const flowsim::FluidRateProvider flat(cal);
  EXPECT_TRUE(flat.coupling_keys(0, 4).empty());
}

TEST(RateProviderSubset, BaseDefaultProjectsFullSolve) {
  // A provider that only implements the one-argument rates() gets the safe
  // full-solve-and-project default for the restricted entry point.
  class ConstantProvider final : public flowsim::RateProvider {
   public:
    using flowsim::RateProvider::rates;  // keep the restricted overload
    [[nodiscard]] std::vector<double> rates(
        const graph::CommGraph& active) const override {
      std::vector<double> out;
      for (graph::CommId i = 0; i < active.size(); ++i)
        out.push_back(100.0 + static_cast<double>(i));
      return out;
    }
  };
  graph::CommGraph g;
  g.add("a", 0, 1, 1.0);
  g.add("b", 2, 3, 1.0);
  g.add("c", 4, 5, 1.0);
  const ConstantProvider provider;
  const std::vector<graph::CommId> subset{2, 0};
  const auto rates = provider.rates(g, subset);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 102.0);
  EXPECT_DOUBLE_EQ(rates[1], 100.0);
}

}  // namespace
}  // namespace bwshare::sim
