// Cluster description (paper §VI-A): number of nodes, cores per node, and the
// interconnect. Nodes are numbered iteratively starting at 0, as in the
// paper's simulator.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "topo/network.hpp"

namespace bwshare::topo {

using NodeId = int;

/// A cluster: a homogeneous set of SMP nodes plus the network.
class ClusterSpec {
 public:
  /// `num_nodes` nodes with `cores_per_node` cores each; each count is at
  /// least 1 and at most kMaxCount (util/limits.hpp).
  static ClusterSpec uniform(std::string name, int num_nodes,
                             int cores_per_node, NetworkCalibration network);

  /// The three clusters used in the paper (§IV-C).
  static ClusterSpec ibm_eserver326_gige(int num_nodes = 53);
  static ClusterSpec ibm_eserver325_myrinet(int num_nodes = 72);
  static ClusterSpec bull_novascale_ib(int num_nodes = 26);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int num_nodes() const { return num_nodes_; }
  [[nodiscard]] int cores_per_node() const { return cores_per_node_; }
  /// 64-bit: kMaxCount nodes of kMaxCount cores overflow an int.
  [[nodiscard]] int64_t total_cores() const {
    return static_cast<int64_t>(num_nodes_) * cores_per_node_;
  }
  [[nodiscard]] const NetworkCalibration& network() const { return network_; }

 private:
  ClusterSpec(std::string name, int num_nodes, int cores_per_node,
              NetworkCalibration network)
      : name_(std::move(name)),
        num_nodes_(num_nodes),
        cores_per_node_(cores_per_node),
        network_(network) {}

  std::string name_;
  int num_nodes_;
  int cores_per_node_;
  NetworkCalibration network_;
};

}  // namespace bwshare::topo
