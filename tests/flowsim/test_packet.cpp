// Packet-level simulator tests: each flow-control mechanism must show its
// characteristic sharing behaviour and agree with the fluid substrate on the
// canonical conflicts (the abl_fluid_vs_packet bench quantifies this).
#include "flowsim/packet.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "flowsim/fluid_network.hpp"
#include "graph/schemes.hpp"
#include "util/error.hpp"

namespace bwshare::flowsim {
namespace {

// Use ~2 MB messages: >1000 packets, fast to simulate.
constexpr double kBytes = 2e6;

TEST(PacketSim, SingleFlowReachesSingleStreamEfficiency) {
  for (const auto& cal :
       {topo::gigabit_ethernet_calibration(), topo::myrinet2000_calibration(),
        topo::infiniband_calibration()}) {
    const auto g = graph::schemes::outgoing_fan(1, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_NEAR(p[0], 1.0, 0.05) << to_string(cal.tech);
  }
}

TEST(PacketSim, GigeFanSharingMatchesBeta) {
  const auto cal = topo::gigabit_ethernet_calibration();
  for (int fan = 2; fan <= 3; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    for (double v : p) EXPECT_NEAR(v, 0.75 * fan, 0.12) << "fan " << fan;
  }
}

TEST(PacketSim, MyrinetFanSerializes) {
  const auto cal = topo::myrinet2000_calibration();
  for (int fan = 2; fan <= 3; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    for (double v : p) EXPECT_NEAR(v, 0.95 * fan, 0.15) << "fan " << fan;
  }
}

TEST(PacketSim, InfinibandFanSharing) {
  const auto cal = topo::infiniband_calibration();
  for (int fan = 2; fan <= 3; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan, kBytes);
    const auto p = measure_penalties_packet(g, cal);
    for (double v : p) EXPECT_NEAR(v, 0.87 * fan, 0.15) << "fan " << fan;
  }
}

TEST(PacketSim, AgreesWithFluidOnIncomeConflict) {
  for (const auto& cal :
       {topo::gigabit_ethernet_calibration(), topo::myrinet2000_calibration(),
        topo::infiniband_calibration()}) {
    const auto g = graph::schemes::incoming_fan(3, kBytes);
    const auto packet = measure_penalties_packet(g, cal);
    const auto fluid = measure_penalties(g, cal);
    for (size_t i = 0; i < packet.size(); ++i)
      EXPECT_NEAR(packet[i] / fluid[i], 1.0, 0.15)
          << to_string(cal.tech) << " comm " << i;
  }
}

TEST(PacketSim, DuplexConflictSlowsSenders) {
  // Fig 2 scheme 5 shape: adding an incoming flow at node 0 must slow the
  // three outgoing flows well beyond the pure 3-fan penalty.
  const auto cal = topo::myrinet2000_calibration();
  const auto fan = measure_penalties_packet(
      graph::schemes::fig2_scheme(3, kBytes), cal);
  const auto duplex = measure_penalties_packet(
      graph::schemes::fig2_scheme(5, kBytes), cal);
  EXPECT_GT(duplex[0], fan[0] * 1.25);
}

TEST(PacketSim, IntraNodeFlow) {
  graph::CommGraph g;
  g.add("shm", 1, 1, 1e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  const auto t = measure_scheme_packet(g, cal);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_NEAR(t[0], cal.latency + 1e6 / cal.shm_bandwidth, 2e-4);
}

TEST(PacketSim, EmptyGraph) {
  const graph::CommGraph g;
  EXPECT_TRUE(
      measure_scheme_packet(g, topo::gigabit_ethernet_calibration()).empty());
}

TEST(PacketSim, RejectsACalibrationWithoutLinkBandwidth) {
  // Checked before anything else, so an empty graph does not slip past.
  graph::CommGraph g;
  g.add("a", 0, 1, 1e6);
  for (const double bandwidth :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    auto cal = topo::gigabit_ethernet_calibration();
    cal.link_bandwidth = bandwidth;
    EXPECT_THROW((void)measure_scheme_packet(g, cal), Error) << bandwidth;
    EXPECT_THROW((void)measure_penalties_packet(g, cal), Error) << bandwidth;
    EXPECT_THROW((void)measure_scheme_packet(graph::CommGraph{}, cal), Error)
        << bandwidth;
  }
}

TEST(PacketSim, RejectsMorePacketsThanItsCeilingBeforeRunning) {
  // About 6.7e11 and 6.7e26 GigE packets: past the ceiling, and the second
  // past what a long holds. Run, the first would take hours; both throw at
  // once. Two 5e6-packet flows are each under the ceiling, but their sum is
  // not.
  const auto cal = topo::gigabit_ethernet_calibration();
  for (const double bytes : {1e15, 1e30}) {
    graph::CommGraph g;
    g.add("a", 0, 1, bytes);
    EXPECT_THROW((void)measure_scheme_packet(g, cal), Error) << bytes;
  }
  graph::CommGraph pair;
  pair.add("a", 0, 1, 5e6 * cal.mtu);
  pair.add("b", 2, 3, 5e6 * cal.mtu);
  try {
    (void)measure_scheme_packet(pair, cal);
    ADD_FAILURE() << "1e7 packets ran";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("at most 8000000 packets"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace bwshare::flowsim
