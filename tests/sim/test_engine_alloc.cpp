// Steady-state allocation freedom of the incremental event loop
// (docs/PERFORMANCE.md "Memory layout").
//
// The engine's warm replay must never call the global allocator: transfer
// slots, the node/key index, match queues, the flush's rate buffer and the
// per-thread solve scratch (graph + util::Arena) are all reused storage,
// and every provider solves in the arena — the fluid max-min problem and
// each penalty model's evaluation alike. The first test measures it the
// way the bench's alloc_per_event column does — the allocation-count delta
// between an R-round replay and a 1-round twin of the same schedule, both
// run after a warm-up replay so thread-local scratch is built. Setup costs
// (engine state, reserves) are identical for both and cancel; any
// remaining delta is a per-event allocation on the steady path, and the
// assertion is exact: zero.
//
// On one task per node every component is a single flow, so the second
// test puts two tasks on each node, where components hold several
// conflicting flows and the models' conflict tables and the Myrinet
// enumeration do real work. There the engine's own per-replay buffers keep
// growing while fresh pairings reach new component shapes, so the test
// counts the allocations made inside the provider's solves instead.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

// Per round: a seeded random perfect matching of rendezvous messages,
// rounds separated by barriers — the bench scenario, shrunk. Fresh pairings
// every round exercise slot, index and match-queue reuse across rounds.
AppTrace matching_trace(int nodes, int rounds, uint64_t seed) {
  AppTrace trace(nodes);
  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  for (int r = 0; r < rounds; ++r) {
    for (int i = nodes - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.below(static_cast<uint64_t>(i + 1)));
      std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    }
    for (int p = 0; p + 1 < nodes; p += 2) {
      const TaskId src = order[static_cast<size_t>(p)];
      const TaskId dst = order[static_cast<size_t>(p + 1)];
      trace.push(src, Event::send(dst, 4e6));
      trace.push(dst, Event::recv(src, 4e6));
    }
    trace.push_barrier_all();
  }
  return trace;
}

// The provider under test, over the GigE calibration: the fluid substrate
// or one of the paper's penalty models through ModelRateProvider.
std::unique_ptr<flowsim::RateProvider> make_provider(
    const std::string& name, const topo::NetworkCalibration& cal) {
  if (name == "fluid") return std::make_unique<flowsim::FluidRateProvider>(cal);
  return std::make_unique<ModelRateProvider>(models::make_model(name), cal);
}

class EngineAlloc : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineAlloc, WarmReplayMakesZeroSteadyStateAllocations) {
  constexpr int kNodes = 32;
  constexpr int kRounds = 6;
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster = topo::ClusterSpec::uniform("alloc", kNodes, 1, cal);
  const auto placement = make_placement(SchedulingPolicy::kRoundRobinNode,
                                        cluster, kNodes);
  const auto owned = make_provider(GetParam(), cal);
  const flowsim::RateProvider& provider = *owned;
  const Scenario scenario;
  const EngineConfig cfg;

  const auto trace1 = matching_trace(kNodes, 1, /*seed=*/7);
  const auto trace = matching_trace(kNodes, kRounds, /*seed=*/7);

  const auto count_replay = [&](const AppTrace& t, int rounds) {
    const uint64_t before = util::alloc_count();
    const SimResult result =
        run_simulation(t, cluster, placement, provider, scenario, cfg);
    const uint64_t allocs = util::alloc_count() - before;
    EXPECT_EQ(result.comms.size(),
              static_cast<size_t>(kNodes / 2) * static_cast<size_t>(rounds));
    return allocs;
  };

  // Warm-up: builds the thread-local solve scratch and arena.
  (void)run_simulation(trace1, cluster, placement, provider, scenario, cfg);

  const uint64_t one_round = count_replay(trace1, 1);
  const uint64_t many_rounds = count_replay(trace, kRounds);
  EXPECT_EQ(many_rounds, one_round)
      << "rounds 2.." << kRounds << " of a warm replay allocated "
      << (many_rounds - one_round) << " times; the steady-state event loop "
      << "must not touch the global allocator";
}

struct SolveTally {
  uint64_t calls = 0;
  uint64_t allocs = 0;
  int max_flows = 0;
};

/// Forwards the engine's solves to `inner`, counting the allocations made
/// inside them and the largest component solved.
class CountingProvider final : public flowsim::RateProvider {
 public:
  CountingProvider(const flowsim::RateProvider& inner, SolveTally& tally)
      : inner_(inner), tally_(tally) {}

  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override {
    return inner_.rates(active);
  }

  void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                  std::span<double> out) const override {
    const uint64_t before = util::alloc_count();
    inner_.rates_into(active, scratch, out);
    tally_.allocs += util::alloc_count() - before;
    ++tally_.calls;
    tally_.max_flows = std::max(tally_.max_flows, active.size());
  }

 private:
  const flowsim::RateProvider& inner_;
  SolveTally& tally_;
};

TEST_P(EngineAlloc, WarmSolvesOfConflictingComponentsMakeZeroAllocations) {
  // Two tasks per node: every node carries two matching endpoints (a node
  // sending twice, receiving twice, or both), and pairs placed on one node
  // become intra-node copies.
  constexpr int kTasks = 32;
  constexpr int kRounds = 6;
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster =
      topo::ClusterSpec::uniform("alloc2", kTasks / 2, 2, cal);
  const auto placement = make_placement(SchedulingPolicy::kRoundRobinNode,
                                        cluster, kTasks);
  const auto inner = make_provider(GetParam(), cal);
  SolveTally tally;
  const CountingProvider provider(*inner, tally);
  const auto trace = matching_trace(kTasks, kRounds, /*seed=*/7);

  // Warm-up: brings the thread-local arena and solve graph to the
  // schedule's high-water mark.
  (void)run_simulation(trace, cluster, placement, provider, Scenario{},
                       EngineConfig{});
  tally = SolveTally{};
  (void)run_simulation(trace, cluster, placement, provider, Scenario{},
                       EngineConfig{});
  EXPECT_GT(tally.calls, 0u);
  EXPECT_GE(tally.max_flows, 4) << "components never held several flows";
  EXPECT_EQ(tally.allocs, 0u)
      << tally.allocs << " allocations in " << tally.calls
      << " warm solves; a provider's rates_into must solve in the arena";
}

INSTANTIATE_TEST_SUITE_P(Providers, EngineAlloc,
                         ::testing::Values("fluid", "gige", "myrinet",
                                           "infiniband"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace bwshare::sim
