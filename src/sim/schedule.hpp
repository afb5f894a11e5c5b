// Task placement (paper §VI-A/§VI-D): "Scheduling of tasks on nodes. It can
// be user defined or using Round-Robin scheduling." The HPL evaluation uses
// three policies:
//   RRN    — Round-Robin per Node: tasks assigned cyclically across nodes;
//   RRP    — Round-Robin per Processor: fill each node's cores first;
//   Random — random assignment.
#pragma once

#include <string>
#include <vector>

#include "topo/cluster.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::sim {

enum class SchedulingPolicy { kRoundRobinNode, kRoundRobinProcessor, kRandom };

[[nodiscard]] std::string to_string(SchedulingPolicy policy);
[[nodiscard]] SchedulingPolicy scheduling_policy_from_string(
    const std::string& name);

/// task id -> node id.
class Placement {
 public:
  Placement() = default;
  explicit Placement(std::vector<topo::NodeId> node_of_task);

  [[nodiscard]] int num_tasks() const {
    return static_cast<int>(node_of_task_.size());
  }
  // Inline: consulted on every send posting.
  [[nodiscard]] topo::NodeId node_of(int task) const {
    BWS_CHECK(task >= 0 && task < num_tasks(),
              strformat("task %d out of range [0,%d)", task, num_tasks()));
    return node_of_task_[static_cast<size_t>(task)];
  }
  [[nodiscard]] const std::vector<topo::NodeId>& nodes() const {
    return node_of_task_;
  }

 private:
  std::vector<topo::NodeId> node_of_task_;
};

/// Build a placement of `num_tasks` tasks on `cluster` under `policy`.
/// `seed` is used by the random policy only. Throws if the cluster lacks
/// cores for the task count, or, for Random, has more than kMaxCount
/// (util/limits.hpp) cores in all: that policy shuffles one slot per core.
[[nodiscard]] Placement make_placement(SchedulingPolicy policy,
                                       const topo::ClusterSpec& cluster,
                                       int num_tasks, uint64_t seed = 42);

}  // namespace bwshare::sim
