#include "topo/cluster.hpp"

#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace bwshare::topo {

ClusterSpec::ClusterSpec(std::string name, std::vector<NodeSpec> nodes,
                         NetworkCalibration network)
    : name_(std::move(name)), nodes_(std::move(nodes)), network_(network) {
  BWS_CHECK(!nodes_.empty(), "cluster needs at least one node");
  for (const auto& node : nodes_)
    BWS_CHECK(node.cores >= 1, "node needs at least one core");
  BWS_CHECK(network_.link_bandwidth > 0.0, "network bandwidth must be set");
}

ClusterSpec ClusterSpec::uniform(std::string name, int num_nodes,
                                 int cores_per_node,
                                 NetworkCalibration network) {
  BWS_CHECK(num_nodes >= 1, "cluster needs at least one node");
  BWS_CHECK(num_nodes <= kMaxCount,
            strformat("cluster: %d nodes exceeds the limit of %d", num_nodes,
                      kMaxCount));
  BWS_CHECK(cores_per_node <= kMaxCount,
            strformat("cluster: %d cores per node exceeds the limit of %d",
                      cores_per_node, kMaxCount));
  std::vector<NodeSpec> nodes(static_cast<size_t>(num_nodes),
                              NodeSpec{cores_per_node, 4.0 * GiB});
  return ClusterSpec(std::move(name), std::move(nodes), network);
}

ClusterSpec ClusterSpec::ibm_eserver326_gige(int num_nodes) {
  return uniform("IBM eServer 326 (2x Opteron 248, GigE BCM5704)", num_nodes,
                 2, gigabit_ethernet_calibration());
}

ClusterSpec ClusterSpec::ibm_eserver325_myrinet(int num_nodes) {
  return uniform("IBM eServer 325 (2x Opteron 246, Myrinet 2000)", num_nodes,
                 2, myrinet2000_calibration());
}

ClusterSpec ClusterSpec::bull_novascale_ib(int num_nodes) {
  return uniform("BULL Novascale (2x Woodcrest, InfiniHost III)", num_nodes, 4,
                 infiniband_calibration());
}

const NodeSpec& ClusterSpec::node(NodeId id) const {
  BWS_CHECK(id >= 0 && id < num_nodes(),
            strformat("node id %d out of range [0,%d)", id, num_nodes()));
  return nodes_[static_cast<size_t>(id)];
}

int64_t ClusterSpec::total_cores() const {
  int64_t total = 0;
  for (const auto& node : nodes_) total += node.cores;
  return total;
}

}  // namespace bwshare::topo
