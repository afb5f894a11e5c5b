// Steady-state allocation freedom of the incremental event loop
// (docs/PERFORMANCE.md "Memory layout").
//
// The engine's warm replay must never call the global allocator: transfer
// slots, components, match queues, the flush's rate buffer and the
// per-thread solve scratch (graph + util::Arena) are all reused storage.
// The test measures it the way the bench's alloc_per_event column does —
// the allocation-count delta between an R-round replay and a 1-round twin
// of the same schedule, both run after a warm-up replay so thread-local
// scratch is built. Setup costs (engine state, reserves) are identical for
// both and cancel; any remaining delta is a per-event allocation on the
// steady path, and the assertion is exact: zero.
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/alloc_counter.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

// Per round: a seeded random perfect matching of rendezvous messages,
// rounds separated by barriers — the bench scenario, shrunk. Fresh pairings
// every round exercise slot/component/match-queue reuse across rounds.
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

TEST(EngineAlloc, WarmReplayMakesZeroSteadyStateAllocations) {
  constexpr int kNodes = 32;
  constexpr int kRounds = 6;
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto cluster = topo::ClusterSpec::uniform("alloc", kNodes, 1, cal);
  const auto placement = make_placement(SchedulingPolicy::kRoundRobinNode,
                                        cluster, kNodes);
  const flowsim::FluidRateProvider provider(cal);
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

}  // namespace
}  // namespace bwshare::sim
