#include "sim/schedule.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

topo::ClusterSpec cluster(int nodes, int cores) {
  return topo::ClusterSpec::uniform("test", nodes, cores,
                                    topo::gigabit_ethernet_calibration());
}

TEST(Schedule, RoundRobinNodeCycles) {
  // 4 nodes x 2 cores, 6 tasks: 0,1,2,3 then wrap to 0,1.
  const auto p = make_placement(SchedulingPolicy::kRoundRobinNode,
                                cluster(4, 2), 6);
  EXPECT_EQ(p.nodes(), (std::vector<topo::NodeId>{0, 1, 2, 3, 0, 1}));
}

TEST(Schedule, RoundRobinProcessorFillsNodes) {
  // 4 nodes x 2 cores, 6 tasks: 0,0,1,1,2,2.
  const auto p = make_placement(SchedulingPolicy::kRoundRobinProcessor,
                                cluster(4, 2), 6);
  EXPECT_EQ(p.nodes(), (std::vector<topo::NodeId>{0, 0, 1, 1, 2, 2}));
}

TEST(Schedule, RandomIsDeterministicPerSeed) {
  const auto a = make_placement(SchedulingPolicy::kRandom, cluster(8, 2), 12, 7);
  const auto b = make_placement(SchedulingPolicy::kRandom, cluster(8, 2), 12, 7);
  EXPECT_EQ(a.nodes(), b.nodes());
  const auto c = make_placement(SchedulingPolicy::kRandom, cluster(8, 2), 12, 8);
  EXPECT_NE(a.nodes(), c.nodes());
}

TEST(Schedule, RandomRespectsCoreCapacity) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    const auto p =
        make_placement(SchedulingPolicy::kRandom, cluster(4, 2), 8, seed);
    std::map<topo::NodeId, int> count;
    for (int t = 0; t < p.num_tasks(); ++t) ++count[p.node_of(t)];
    for (const auto& [node, n] : count) EXPECT_LE(n, 2) << "node " << node;
  }
}

TEST(Schedule, AllPoliciesRespectCapacity) {
  for (const auto policy :
       {SchedulingPolicy::kRoundRobinNode, SchedulingPolicy::kRoundRobinProcessor,
        SchedulingPolicy::kRandom}) {
    const auto c = cluster(3, 2);
    const auto p = make_placement(policy, c, 6);
    std::map<topo::NodeId, int> count;
    for (int t = 0; t < 6; ++t) ++count[p.node_of(t)];
    for (const auto& [node, n] : count) EXPECT_LE(n, 2);
  }
}

TEST(Schedule, Colocation) {
  // RRP puts consecutive tasks on one node until its cores are used.
  const auto p = make_placement(SchedulingPolicy::kRoundRobinProcessor,
                                cluster(4, 2), 4);
  EXPECT_EQ(p.node_of(0), p.node_of(1));
  EXPECT_NE(p.node_of(1), p.node_of(2));
}

TEST(Schedule, CapacityValidation) {
  EXPECT_THROW(make_placement(SchedulingPolicy::kRoundRobinNode, cluster(2, 1), 3),
               Error);
  EXPECT_THROW(make_placement(SchedulingPolicy::kRandom, cluster(2, 1), 0),
               Error);
}

TEST(Schedule, RoundRobinPoliciesBuildNoSlotPerCore) {
  // 10^6 nodes of 10^6 cores is inside every ceiling; a placement that
  // reserved one slot per core asked for 10^12 ints and died with
  // std::bad_alloc. The round-robin policies only read the first few.
  const auto huge = cluster(1000000, 1000000);
  EXPECT_EQ(make_placement(SchedulingPolicy::kRoundRobinNode, huge, 3).nodes(),
            (std::vector<topo::NodeId>{0, 1, 2}));
  EXPECT_EQ(
      make_placement(SchedulingPolicy::kRoundRobinProcessor, huge, 3).nodes(),
      (std::vector<topo::NodeId>{0, 0, 0}));
}

TEST(Schedule, RandomRejectsMoreCoresThanTheCountLimit) {
  // Random shuffles one slot per core, so the core total is capped.
  try {
    (void)make_placement(SchedulingPolicy::kRandom, cluster(1000000, 1000000),
                         3);
    ADD_FAILURE() << "expected the limit to reject the placement";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "Random placement: 1000000000000 cores exceeds the limit "
                  "of 1000000"),
              std::string::npos)
        << e.what();
  }
  // At the limit the shuffle still runs.
  EXPECT_EQ(
      make_placement(SchedulingPolicy::kRandom, cluster(1000, 1000), 3).num_tasks(),
      3);
}

// The node-by-node placement loops, written out for `nodes` nodes of
// `cores` cores each: RRN cycles over the nodes while a per-node count of
// used cores stays under the node's cores, and RRP and Random walk the core
// slots in node order, [n0 x cores, n1 x cores, ...].
std::vector<topo::NodeId> reference_core_slots(int nodes, int cores,
                                               size_t count) {
  std::vector<topo::NodeId> slots;
  for (topo::NodeId n = 0; n < nodes && slots.size() < count; ++n)
    for (int c = 0; c < cores && slots.size() < count; ++c) slots.push_back(n);
  return slots;
}

std::vector<topo::NodeId> reference_placement(SchedulingPolicy policy,
                                              int nodes, int cores,
                                              int num_tasks, uint64_t seed) {
  std::vector<topo::NodeId> node_of(static_cast<size_t>(num_tasks));
  switch (policy) {
    case SchedulingPolicy::kRoundRobinNode: {
      std::vector<int> used(static_cast<size_t>(nodes), 0);
      int t = 0;
      while (t < num_tasks) {
        for (topo::NodeId n = 0; n < nodes && t < num_tasks; ++n) {
          if (used[static_cast<size_t>(n)] >= cores) continue;
          ++used[static_cast<size_t>(n)];
          node_of[static_cast<size_t>(t++)] = n;
        }
      }
      break;
    }
    case SchedulingPolicy::kRoundRobinProcessor:
      node_of =
          reference_core_slots(nodes, cores, static_cast<size_t>(num_tasks));
      break;
    case SchedulingPolicy::kRandom: {
      auto slots = reference_core_slots(nodes, cores,
                                        static_cast<size_t>(nodes * cores));
      Rng rng(seed);
      for (size_t i = slots.size() - 1; i > 0; --i)
        std::swap(slots[i], slots[rng.below(i + 1)]);
      for (int t = 0; t < num_tasks; ++t)
        node_of[static_cast<size_t>(t)] = slots[static_cast<size_t>(t)];
      break;
    }
  }
  return node_of;
}

TEST(Schedule, EveryPolicyMatchesTheNodeByNodeLoops) {
  for (int nodes = 1; nodes <= 6; ++nodes) {
    for (int cores = 1; cores <= 4; ++cores) {
      const auto c = cluster(nodes, cores);
      for (int tasks = 1; tasks <= nodes * cores; ++tasks) {
        for (const auto policy : {SchedulingPolicy::kRoundRobinNode,
                                  SchedulingPolicy::kRoundRobinProcessor,
                                  SchedulingPolicy::kRandom}) {
          for (uint64_t seed = 1; seed <= 3; ++seed) {
            EXPECT_EQ(make_placement(policy, c, tasks, seed).nodes(),
                      reference_placement(policy, nodes, cores, tasks, seed))
                << to_string(policy) << " on " << nodes << "x" << cores
                << ", " << tasks << " tasks, seed " << seed;
          }
        }
      }
    }
  }
}

TEST(Schedule, PolicyNames) {
  EXPECT_EQ(to_string(SchedulingPolicy::kRoundRobinNode), "RRN");
  EXPECT_EQ(scheduling_policy_from_string("RRP"),
            SchedulingPolicy::kRoundRobinProcessor);
  EXPECT_EQ(scheduling_policy_from_string("random"), SchedulingPolicy::kRandom);
  EXPECT_THROW((void)scheduling_policy_from_string("fifo"), Error);
}

TEST(Schedule, EveryPolicyNameRoundTrips) {
  // The spellings the CLI, the sweep CSV and served queries carry.
  EXPECT_EQ(to_string(SchedulingPolicy::kRoundRobinProcessor), "RRP");
  EXPECT_EQ(to_string(SchedulingPolicy::kRandom), "Random");
  for (const auto policy : {SchedulingPolicy::kRoundRobinNode,
                            SchedulingPolicy::kRoundRobinProcessor,
                            SchedulingPolicy::kRandom})
    EXPECT_EQ(scheduling_policy_from_string(to_string(policy)), policy);
  EXPECT_EQ(scheduling_policy_from_string("rrn"),
            SchedulingPolicy::kRoundRobinNode);
  EXPECT_EQ(scheduling_policy_from_string("rrp"),
            SchedulingPolicy::kRoundRobinProcessor);
  EXPECT_THROW((void)scheduling_policy_from_string("RANDOM"), Error);
}

}  // namespace
}  // namespace bwshare::sim
