// Packet-level network simulators for the three flow-control mechanisms the
// paper describes (§III):
//
//   * kTcpPauseFrames — Gigabit Ethernet: windowed injection (TCP sliding
//     window; ACK per delivered packet) over store-and-forward links. The
//     window bounds in-flight data, so queues never overflow — the
//     802.3x pause behaviour appears as senders idling when the window is
//     closed.
//   * kStopAndGo — Myrinet 2000: wormhole cut-through. A packet crosses the
//     network only when its whole path (source uplink + destination
//     downlink) is free, and holds it for one serialization time; contending
//     flows alternate Stop/Go grants round-robin.
//   * kCreditBased — InfiniBand: a sender consumes a buffer credit of the
//     destination link per packet and gets it back when the packet drains.
//
// All modes share the host model: per-flow injection paced at the
// single-stream efficiency, and a host IO engine of capacity
// duplex_factor x link shared between directions with RX priority weight.
//
// These simulators are the high-fidelity cross-check of the fluid substrate
// (bench/abl_fluid_vs_packet); the fluid model is what experiments use.
#pragma once

#include <vector>

#include "graph/comm_graph.hpp"
#include "topo/network.hpp"

namespace bwshare::flowsim {

/// Simulate all communications of `graph` starting at t=0 at packet
/// granularity on the interconnect `cal` describes (its flow_control picks
/// the mechanism); returns per-comm completion times (graph order).
[[nodiscard]] std::vector<double> measure_scheme_packet(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal);

/// Penalties P_i = T_i / T_ref from the packet simulator.
[[nodiscard]] std::vector<double> measure_penalties_packet(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal);

}  // namespace bwshare::flowsim
