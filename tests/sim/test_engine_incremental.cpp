// The incremental component-scoped rate refresh under EngineConfig::verify
// (docs/PERFORMANCE.md): after every flush a verify replay re-solves the
// whole active set as one unrestricted problem and throws if any cached
// component rate drifts beyond 1e-9 relative; it must otherwise be
// bit-identical to the default replay. Fuzzed over randomized schedules
// from every graph::generator family under the fluid, gige-model,
// myrinet-model and infiniband-model providers, plus the provider entry
// points themselves and the scope of each component solve.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "util/arena.hpp"
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

class GeneratedSchemes : public ::testing::TestWithParam<SpecSeed> {};

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

TEST_P(GeneratedSchemes, InfinibandModelProviderPassesVerify) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::infiniband_calibration();
  const ModelRateProvider provider(models::make_model("infiniband"), cal);
  check_scheme(scheme, provider, cal);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, GeneratedSchemes,
                         ::testing::Combine(all_family_specs(),
                                            ::testing::Values(1u, 2u, 3u)),
                         spec_seed_name);

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

// --- the scope of each component solve --------------------------------------

/// Forwards every solve to the GigE fluid provider and keeps a copy of each
/// graph the engine hands it (serial replays only).
class RecordingProvider final : public flowsim::RateProvider {
 public:
  explicit RecordingProvider(std::vector<graph::CommGraph>& solved)
      : inner_(topo::gigabit_ethernet_calibration()), solved_(solved) {}

  using flowsim::RateProvider::rates;
  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override {
    return inner_.rates(active);
  }

  void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                  std::span<double> out) const override {
    solved_.push_back(active);
    inner_.rates_into(active, scratch, out);
  }

 private:
  flowsim::FluidRateProvider inner_;
  std::vector<graph::CommGraph>& solved_;
};

/// True when every comm of `g` is reachable from comm 0 through shared
/// endpoint nodes.
bool endpoint_connected(const graph::CommGraph& g) {
  if (g.empty()) return false;
  std::set<topo::NodeId> nodes{g.comm(0).src, g.comm(0).dst};
  std::vector<bool> joined(static_cast<size_t>(g.size()), false);
  joined[0] = true;
  for (bool grew = true; grew;) {
    grew = false;
    for (graph::CommId i = 0; i < g.size(); ++i) {
      const auto& c = g.comm(i);
      if (joined[static_cast<size_t>(i)] ||
          (nodes.count(c.src) == 0 && nodes.count(c.dst) == 0))
        continue;
      joined[static_cast<size_t>(i)] = true;
      nodes.insert(c.src);
      nodes.insert(c.dst);
      grew = true;
    }
  }
  return std::find(joined.begin(), joined.end(), false) == joined.end();
}

/// Replays `scheme` (all comms posted at t=0, one task per node) and
/// returns every graph the engine solved.
std::vector<graph::CommGraph> solved_graphs(const graph::CommGraph& scheme,
                                            SimResult* result = nullptr) {
  std::vector<graph::CommGraph> solved;
  const RecordingProvider provider(solved);
  const auto cluster = topo::ClusterSpec::uniform(
      "scope", scheme.num_nodes(), 1, topo::gigabit_ethernet_calibration());
  const auto r = run_simulation(trace_from_scheme(scheme), cluster,
                                identity_placement(scheme.num_nodes()),
                                provider);
  if (result != nullptr) *result = r;
  return solved;
}

TEST(ComponentScope, TransfersLinkedThroughSharedEndpointsAreSolvedTogether) {
  // a and c share no node; b shares node 1 with a and node 2 with c, so
  // while all three are in flight they form one component.
  graph::CommGraph scheme;
  scheme.add("a", 0, 1, 4e6);
  scheme.add("b", 2, 1, 6e6);
  scheme.add("c", 2, 3, 8e6);
  const auto solved = solved_graphs(scheme);
  ASSERT_FALSE(solved.empty());
  EXPECT_EQ(solved.front().size(), 3);
  for (const auto& g : solved) EXPECT_TRUE(endpoint_connected(g));
}

TEST(ComponentScope, EndpointDisjointTransfersAreSolvedApart) {
  // A fan-in at node 1 and a lone pair 3->4: no solve may mix them, and the
  // lone pair finishes exactly as it does with nothing else in flight.
  graph::CommGraph scheme;
  scheme.add("a", 0, 1, 4e6);
  scheme.add("b", 2, 1, 4e6);
  scheme.add("c", 3, 4, 4e6);
  SimResult mixed;
  const auto solved = solved_graphs(scheme, &mixed);
  int largest = 0;
  for (const auto& g : solved) {
    EXPECT_TRUE(endpoint_connected(g));
    largest = std::max(largest, g.size());
  }
  EXPECT_EQ(largest, 2) << "the fan-in was never solved as one component, "
                        << "or the lone pair joined it";

  graph::CommGraph lone;
  lone.add("c", 3, 4, 4e6);
  SimResult alone;
  (void)solved_graphs(lone, &alone);
  ASSERT_EQ(mixed.comms.size(), 3u);
  ASSERT_EQ(alone.comms.size(), 1u);
  const auto pair = std::find_if(
      mixed.comms.begin(), mixed.comms.end(),
      [](const CommRecord& r) { return r.src_node == 3; });
  ASSERT_NE(pair, mixed.comms.end());
  EXPECT_EQ(pair->finish, alone.comms[0].finish);
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
