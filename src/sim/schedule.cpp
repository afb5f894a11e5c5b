#include "sim/schedule.hpp"

#include <utility>

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

  const int nodes = cluster.num_nodes();
  const int cores = cluster.cores_per_node();
  std::vector<topo::NodeId> node_of(static_cast<size_t>(num_tasks));
  switch (policy) {
    case SchedulingPolicy::kRoundRobinNode:
      // Cycle over the nodes; every node has the same cores, so each round
      // visits all of them and the capacity check above bounds the rounds.
      for (int t = 0; t < num_tasks; ++t)
        node_of[static_cast<size_t>(t)] = t % nodes;
      break;
    case SchedulingPolicy::kRoundRobinProcessor:
      // Fill each node's cores before moving to the next.
      for (int t = 0; t < num_tasks; ++t)
        node_of[static_cast<size_t>(t)] = t / cores;
      break;
    case SchedulingPolicy::kRandom: {
      BWS_CHECK(cluster.total_cores() <= kMaxCount,
                strformat("Random placement: %lld cores exceeds the limit of "
                          "%d",
                          static_cast<long long>(cluster.total_cores()),
                          kMaxCount));
      // One slot per core in node order, [n0,n0,n1,n1,...] for 2-core
      // nodes; Fisher-Yates over them, then take the first num_tasks.
      std::vector<topo::NodeId> slots(
          static_cast<size_t>(cluster.total_cores()));
      for (size_t s = 0; s < slots.size(); ++s)
        slots[s] = static_cast<topo::NodeId>(s / static_cast<size_t>(cores));
      Rng rng(seed);
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
