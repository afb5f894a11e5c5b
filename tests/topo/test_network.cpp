#include "topo/network.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bwshare::topo {
namespace {

TEST(Network, CalibrationsHaveSaneShapes) {
  for (const auto tech :
       {NetworkTech::kGigabitEthernet, NetworkTech::kMyrinet2000,
        NetworkTech::kInfinibandInfinihost3}) {
    const auto cal = calibration_for(tech);
    EXPECT_EQ(cal.tech, tech);
    EXPECT_GT(cal.link_bandwidth, 0.0);
    EXPECT_GT(cal.single_stream_efficiency, 0.0);
    EXPECT_LE(cal.single_stream_efficiency, 1.0);
    EXPECT_GT(cal.latency, 0.0);
    EXPECT_GT(cal.mtu, 0.0);
    EXPECT_GT(cal.host_duplex_factor, 0.0);
    EXPECT_LE(cal.host_duplex_factor, 2.0);
  }
}

TEST(Network, BandwidthOrderingMatchesHardware) {
  // IB InfiniHost III > Myrinet 2000 > GigE raw link speed.
  const auto gige = gigabit_ethernet_calibration();
  const auto myri = myrinet2000_calibration();
  const auto ib = infiniband_calibration();
  EXPECT_GT(ib.link_bandwidth, myri.link_bandwidth);
  EXPECT_GT(myri.link_bandwidth, gige.link_bandwidth);
}

TEST(Network, SharingEfficiencyOrderingMatchesFig2) {
  // Fig 2: GigE shares best (β=0.75), IB next (0.87), Myrinet serializes
  // almost fully (0.95).
  const auto gige = gigabit_ethernet_calibration();
  const auto myri = myrinet2000_calibration();
  const auto ib = infiniband_calibration();
  EXPECT_LT(gige.single_stream_efficiency, ib.single_stream_efficiency);
  EXPECT_LT(ib.single_stream_efficiency, myri.single_stream_efficiency);
}

TEST(Network, ReferenceTime) {
  const auto gige = gigabit_ethernet_calibration();
  // 20 MB at 75% of 1 Gb/s ≈ 0.213 s plus latency.
  EXPECT_NEAR(gige.reference_time(20e6), 20e6 / (0.75 * 125e6), 1e-3);
}

TEST(Network, ReferenceTimeOfAnEmptyMessageIsTheLatency) {
  for (const auto tech :
       {NetworkTech::kGigabitEthernet, NetworkTech::kMyrinet2000,
        NetworkTech::kInfinibandInfinihost3}) {
    const auto cal = calibration_for(tech);
    EXPECT_EQ(cal.reference_time(0.0), cal.latency);
    EXPECT_EQ(cal.reference_bandwidth(),
              cal.link_bandwidth * cal.single_stream_efficiency);
    EXPECT_GT(cal.reference_time(2e6), cal.reference_time(1e6));
  }
}

TEST(Network, FlowControlMatchesTheInterconnect) {
  // Paper §III: TCP with pause frames on GigE, Stop & Go on Myrinet,
  // credits on InfiniBand.
  EXPECT_EQ(gigabit_ethernet_calibration().flow_control,
            FlowControlKind::kTcpPauseFrames);
  EXPECT_EQ(myrinet2000_calibration().flow_control,
            FlowControlKind::kStopAndGo);
  EXPECT_EQ(infiniband_calibration().flow_control,
            FlowControlKind::kCreditBased);
}

TEST(Network, EveryAliasNamesItsTechnology) {
  EXPECT_EQ(network_tech_from_string("ethernet"),
            NetworkTech::kGigabitEthernet);
  EXPECT_EQ(network_tech_from_string("myrinet"), NetworkTech::kMyrinet2000);
  EXPECT_EQ(network_tech_from_string("mx"), NetworkTech::kMyrinet2000);
  EXPECT_EQ(network_tech_from_string("infiniband"),
            NetworkTech::kInfinibandInfinihost3);
  // Names are matched exactly.
  EXPECT_THROW((void)network_tech_from_string("GigE"), Error);
  EXPECT_THROW((void)network_tech_from_string(""), Error);
}

TEST(Network, OutOfRangeTechIsRejected) {
  const auto bogus = static_cast<NetworkTech>(7);
  EXPECT_THROW((void)calibration_for(bogus), Error);
  EXPECT_EQ(to_string(bogus), "?");
}

TEST(Network, StringRoundTrip) {
  for (const auto tech :
       {NetworkTech::kGigabitEthernet, NetworkTech::kMyrinet2000,
        NetworkTech::kInfinibandInfinihost3}) {
    EXPECT_EQ(network_tech_from_string(to_string(tech)), tech);
  }
  EXPECT_EQ(network_tech_from_string("gige"), NetworkTech::kGigabitEthernet);
  EXPECT_EQ(network_tech_from_string("ib"),
            NetworkTech::kInfinibandInfinihost3);
  EXPECT_THROW((void)network_tech_from_string("token-ring"), Error);
}

}  // namespace
}  // namespace bwshare::topo
