#include "topo/cluster.hpp"

#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/strings.hpp"

namespace bwshare::topo {

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
  BWS_CHECK(cores_per_node >= 1, "node needs at least one core");
  BWS_CHECK(network.link_bandwidth > 0.0, "network bandwidth must be set");
  return ClusterSpec(std::move(name), num_nodes, cores_per_node, network);
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

}  // namespace bwshare::topo
