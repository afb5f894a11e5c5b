#include "sim/schedule.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bwshare::sim {

std::string to_string(SchedulingPolicy policy) {
  switch (policy) {
    case SchedulingPolicy::kRoundRobinNode: return "RRN";
    case SchedulingPolicy::kRoundRobinProcessor: return "RRP";
    case SchedulingPolicy::kRandom: return "Random";
  }
  return "?";
}

SchedulingPolicy scheduling_policy_from_string(const std::string& name) {
  if (name == "RRN" || name == "rrn") return SchedulingPolicy::kRoundRobinNode;
  if (name == "RRP" || name == "rrp")
    return SchedulingPolicy::kRoundRobinProcessor;
  if (name == "Random" || name == "random") return SchedulingPolicy::kRandom;
  BWS_THROW("unknown scheduling policy '" + name + "'");
}

Placement::Placement(std::vector<topo::NodeId> node_of_task)
    : node_of_task_(std::move(node_of_task)) {
  for (topo::NodeId n : node_of_task_)
    BWS_CHECK(n >= 0, "placement references a negative node id");
}

Placement make_placement(SchedulingPolicy policy,
                         const topo::ClusterSpec& cluster, int num_tasks,
                         uint64_t seed) {
  BWS_CHECK(num_tasks >= 1, "need at least one task");
  BWS_CHECK(num_tasks <= cluster.total_cores(),
            strformat("cluster has %lld cores for %d tasks",
                      static_cast<long long>(cluster.total_cores()),
                      num_tasks));

  // The first `count` core slots in node order: [n0,n0,n1,n1,...] for
  // 2-core nodes. RRP reads num_tasks of them, Random shuffles them all.
  const auto core_slots = [&](size_t count) {
    std::vector<topo::NodeId> slots;
    slots.reserve(count);
    for (topo::NodeId n = 0; slots.size() < count; ++n)
      for (int c = 0; c < cluster.node(n).cores && slots.size() < count; ++c)
        slots.push_back(n);
    return slots;
  };

  std::vector<topo::NodeId> node_of(static_cast<size_t>(num_tasks));
  switch (policy) {
    case SchedulingPolicy::kRoundRobinNode: {
      // Cycle over nodes; a node accepts as many rounds as it has cores.
      std::vector<int> used(static_cast<size_t>(cluster.num_nodes()), 0);
      int t = 0;
      while (t < num_tasks) {
        bool placed_any = false;
        for (topo::NodeId n = 0; n < cluster.num_nodes() && t < num_tasks;
             ++n) {
          if (used[static_cast<size_t>(n)] >= cluster.node(n).cores) continue;
          ++used[static_cast<size_t>(n)];
          node_of[static_cast<size_t>(t++)] = n;
          placed_any = true;
        }
        BWS_ASSERT(placed_any, "round-robin placement made no progress");
      }
      break;
    }
    case SchedulingPolicy::kRoundRobinProcessor: {
      node_of = core_slots(static_cast<size_t>(num_tasks));
      break;
    }
    case SchedulingPolicy::kRandom: {
      BWS_CHECK(cluster.total_cores() <= kMaxCount,
                strformat("Random placement: %lld cores exceeds the limit of "
                          "%d",
                          static_cast<long long>(cluster.total_cores()),
                          kMaxCount));
      std::vector<topo::NodeId> slots =
          core_slots(static_cast<size_t>(cluster.total_cores()));
      Rng rng(seed);
      // Fisher-Yates over the core slots, then take the first num_tasks.
      for (size_t i = slots.size() - 1; i > 0; --i)
        std::swap(slots[i], slots[rng.below(i + 1)]);
      for (int t = 0; t < num_tasks; ++t)
        node_of[static_cast<size_t>(t)] = slots[static_cast<size_t>(t)];
      break;
    }
  }
  return Placement(std::move(node_of));
}

}  // namespace bwshare::sim
