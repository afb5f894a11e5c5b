#include "topo/cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace bwshare::topo {
namespace {

// Expects `uniform` to throw a bwshare::Error whose message contains `what`.
void expect_rejected(int nodes, int cores, const NetworkCalibration& cal,
                     const std::string& what) {
  try {
    (void)ClusterSpec::uniform("x", nodes, cores, cal);
    ADD_FAILURE() << "expected '" << what << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Cluster, UniformConstruction) {
  const auto c =
      ClusterSpec::uniform("test", 8, 2, gigabit_ethernet_calibration());
  EXPECT_EQ(c.name(), "test");
  EXPECT_EQ(c.num_nodes(), 8);
  EXPECT_EQ(c.cores_per_node(), 2);
  EXPECT_EQ(c.total_cores(), 16);
}

TEST(Cluster, PaperClusters) {
  const auto gige = ClusterSpec::ibm_eserver326_gige();
  EXPECT_EQ(gige.num_nodes(), 53);
  EXPECT_EQ(gige.cores_per_node(), 2);
  EXPECT_EQ(gige.network().tech, NetworkTech::kGigabitEthernet);

  const auto myri = ClusterSpec::ibm_eserver325_myrinet();
  EXPECT_EQ(myri.num_nodes(), 72);
  EXPECT_EQ(myri.network().tech, NetworkTech::kMyrinet2000);

  const auto ib = ClusterSpec::bull_novascale_ib();
  EXPECT_EQ(ib.num_nodes(), 26);
  EXPECT_EQ(ib.cores_per_node(), 4);  // 2x Woodcrest = 4 cores/node
  EXPECT_EQ(ib.network().tech, NetworkTech::kInfinibandInfinihost3);
}

TEST(Cluster, Validation) {
  const auto gige = gigabit_ethernet_calibration();
  expect_rejected(0, 1, gige, "cluster needs at least one node");
  expect_rejected(1, 0, gige, "node needs at least one core");
  expect_rejected(1, 1, NetworkCalibration{}, "network bandwidth must be set");
}

TEST(Cluster, RejectsANetworkWithoutBandwidth) {
  // A default NetworkCalibration has no link bandwidth: every rate the
  // substrate derives from it would be zero or a division by zero.
  EXPECT_THROW(ClusterSpec::uniform("x", 2, 1, NetworkCalibration{}), Error);
  auto cal = gigabit_ethernet_calibration();
  cal.link_bandwidth = -1.0;
  expect_rejected(1, 1, cal, "network bandwidth must be set");
  cal.link_bandwidth = 1.0;
  EXPECT_EQ(ClusterSpec::uniform("x", 1, 1, cal).num_nodes(), 1);
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
