// Cluster description (paper §VI-A): number of nodes, cores per node, and the
// interconnect. Nodes are numbered iteratively starting at 0, as in the
// paper's simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topo/network.hpp"

namespace bwshare::topo {

using NodeId = int;
using CoreId = int;

struct NodeSpec {
  int cores = 1;
  double memory_bytes = 4.0 * 1024 * 1024 * 1024;
};

/// A cluster: homogeneous or heterogeneous set of SMP nodes plus the network.
class ClusterSpec {
 public:
  ClusterSpec(std::string name, std::vector<NodeSpec> nodes,
              NetworkCalibration network);

  /// Homogeneous cluster of `num_nodes` nodes with `cores_per_node` cores;
  /// each count is at most kMaxCount (util/limits.hpp).
  static ClusterSpec uniform(std::string name, int num_nodes,
                             int cores_per_node, NetworkCalibration network);

  /// The three clusters used in the paper (§IV-C).
  static ClusterSpec ibm_eserver326_gige(int num_nodes = 53);
  static ClusterSpec ibm_eserver325_myrinet(int num_nodes = 72);
  static ClusterSpec bull_novascale_ib(int num_nodes = 26);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int num_nodes() const { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const NodeSpec& node(NodeId id) const;
  /// 64-bit: kMaxCount nodes of kMaxCount cores overflow an int.
  [[nodiscard]] int64_t total_cores() const;
  [[nodiscard]] const NetworkCalibration& network() const { return network_; }

 private:
  std::string name_;
  std::vector<NodeSpec> nodes_;
  NetworkCalibration network_;
};

}  // namespace bwshare::topo
