#include "topo/cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace bwshare::topo {
namespace {

TEST(Cluster, UniformConstruction) {
  const auto c =
      ClusterSpec::uniform("test", 8, 2, gigabit_ethernet_calibration());
  EXPECT_EQ(c.num_nodes(), 8);
  EXPECT_EQ(c.total_cores(), 16);
  EXPECT_EQ(c.node(0).cores, 2);
}

TEST(Cluster, PaperClusters) {
  const auto gige = ClusterSpec::ibm_eserver326_gige();
  EXPECT_EQ(gige.num_nodes(), 53);
  EXPECT_EQ(gige.node(0).cores, 2);
  EXPECT_EQ(gige.network().tech, NetworkTech::kGigabitEthernet);

  const auto myri = ClusterSpec::ibm_eserver325_myrinet();
  EXPECT_EQ(myri.num_nodes(), 72);
  EXPECT_EQ(myri.network().tech, NetworkTech::kMyrinet2000);

  const auto ib = ClusterSpec::bull_novascale_ib();
  EXPECT_EQ(ib.num_nodes(), 26);
  EXPECT_EQ(ib.node(0).cores, 4);  // 2x Woodcrest = 4 cores/node
  EXPECT_EQ(ib.network().tech, NetworkTech::kInfinibandInfinihost3);
}

TEST(Cluster, Validation) {
  EXPECT_THROW(
      ClusterSpec::uniform("x", 0, 1, gigabit_ethernet_calibration()), Error);
  EXPECT_THROW(
      ClusterSpec("x", {NodeSpec{0, 1.0}}, gigabit_ethernet_calibration()),
      Error);
  const auto c =
      ClusterSpec::uniform("test", 2, 1, gigabit_ethernet_calibration());
  EXPECT_THROW((void)c.node(2), Error);
  EXPECT_THROW((void)c.node(-1), Error);
}

TEST(Cluster, HeterogeneousNodesKeepTheirOwnCoreCounts) {
  const ClusterSpec c("mixed",
                      {NodeSpec{1, 1e9}, NodeSpec{4, 8e9}, NodeSpec{2, 2e9}},
                      myrinet2000_calibration());
  EXPECT_EQ(c.name(), "mixed");
  EXPECT_EQ(c.num_nodes(), 3);
  EXPECT_EQ(c.node(0).cores, 1);
  EXPECT_EQ(c.node(1).cores, 4);
  EXPECT_EQ(c.node(1).memory_bytes, 8e9);
  EXPECT_EQ(c.node(2).cores, 2);
  EXPECT_EQ(c.total_cores(), 7);
  EXPECT_EQ(c.network().tech, NetworkTech::kMyrinet2000);
}

TEST(Cluster, RejectsANetworkWithoutBandwidth) {
  // A default NetworkCalibration has no link bandwidth: every rate the
  // substrate derives from it would be zero or a division by zero.
  EXPECT_THROW(ClusterSpec::uniform("x", 2, 1, NetworkCalibration{}), Error);
  auto cal = gigabit_ethernet_calibration();
  cal.link_bandwidth = -1.0;
  EXPECT_THROW(ClusterSpec("x", {NodeSpec{}}, cal), Error);
  cal.link_bandwidth = 1.0;
  EXPECT_EQ(ClusterSpec("x", {NodeSpec{}}, cal).num_nodes(), 1);
}

TEST(Cluster, UniformRejectsCorelessNodes) {
  EXPECT_THROW(
      ClusterSpec::uniform("x", 4, 0, gigabit_ethernet_calibration()), Error);
  EXPECT_THROW(
      ClusterSpec::uniform("x", 4, -2, gigabit_ethernet_calibration()), Error);
  EXPECT_THROW(
      ClusterSpec::uniform("x", -3, 1, gigabit_ethernet_calibration()), Error);
}

TEST(Cluster, PaperClustersTakeANodeCount) {
  const auto gige = ClusterSpec::ibm_eserver326_gige(8);
  EXPECT_EQ(gige.num_nodes(), 8);
  EXPECT_EQ(gige.total_cores(), 16);
  const auto myri = ClusterSpec::ibm_eserver325_myrinet(3);
  EXPECT_EQ(myri.num_nodes(), 3);
  EXPECT_EQ(myri.total_cores(), 6);
  const auto ib = ClusterSpec::bull_novascale_ib(2);
  EXPECT_EQ(ib.num_nodes(), 2);
  EXPECT_EQ(ib.total_cores(), 8);
  EXPECT_THROW((void)ClusterSpec::ibm_eserver325_myrinet(0), Error);
}

TEST(Cluster, NodeCountCeiling) {
  // Checked before the node vector is sized: 2^31 - 1 nodes used to abort
  // with std::bad_alloc.
  try {
    (void)ClusterSpec::uniform("x", 2147483647, 2,
                               gigabit_ethernet_calibration());
    ADD_FAILURE() << "expected the ceiling to reject the cluster";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "cluster: 2147483647 nodes exceeds the limit of 1000000"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ClusterSpec::uniform("x", 1000001, 1,
                                    gigabit_ethernet_calibration()),
               Error);
  EXPECT_EQ(ClusterSpec::uniform("x", 1000000, 1,
                                 gigabit_ethernet_calibration())
                .num_nodes(),
            1000000);
}

TEST(Cluster, CoreCountCeiling) {
  // 8 nodes of 2^31 - 1 cores used to overflow total_cores()'s int sum
  // (undefined behaviour; it read -16).
  try {
    (void)ClusterSpec::uniform("x", 8, 2147483647,
                               gigabit_ethernet_calibration());
    ADD_FAILURE() << "expected the ceiling to reject the cluster";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "cluster: 2147483647 cores per node exceeds the limit of "
                  "1000000"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ClusterSpec::uniform("x", 1, 1000001,
                                    gigabit_ethernet_calibration()),
               Error);
  // Both counts at the ceiling: the core total needs 64 bits.
  EXPECT_EQ(ClusterSpec::uniform("x", 1000000, 1000000,
                                 gigabit_ethernet_calibration())
                .total_cores(),
            int64_t{1000000} * 1000000);
}

}  // namespace
}  // namespace bwshare::topo
