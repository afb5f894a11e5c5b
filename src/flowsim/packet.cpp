#include "flowsim/packet.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>

#include "core/clock.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::flowsim {

namespace {

using topo::FlowControlKind;

/// TCP window in packets (kTcpPauseFrames); effective cwnd after ramp-up.
constexpr int kWindowPackets = 64;
/// Link-level credits per flow (kCreditBased).
constexpr int kCredits = 16;
/// Ceiling on one simulation's packets, summed over its flows and checked
/// before it runs. A network packet costs at most six events: its injection,
/// the source IO engine, the uplink, the downlink, the destination IO engine,
/// and an ACK or a credit return (Stop&Go's one wormhole grant replaces the
/// two link stages and returns nothing). An intra-node packet costs two. So
/// no run passes 4.8e7 events.
constexpr double kMaxPackets = 8e6;

struct Packet {
  int flow = 0;
  bool last = false;
};

/// Single-queue FIFO server (a link direction): serves one packet at a time
/// at a fixed serialization delay and hands it to `sink`.
class FifoServer {
 public:
  using Sink = std::function<void(Packet)>;

  FifoServer(core::Reactor& sim, double service_time, Sink sink)
      : sim_(sim), service_time_(service_time), sink_(std::move(sink)) {}

  void push(Packet p) {
    queue_.push_back(p);
    if (!busy_) start_next();
  }

  [[nodiscard]] bool idle() const { return !busy_ && queue_.empty(); }
  [[nodiscard]] size_t backlog() const { return queue_.size(); }

 private:
  void start_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const Packet p = queue_.front();
    queue_.pop_front();
    sim_.schedule_in(service_time_, [this, p] {
      sink_(p);
      start_next();
    });
  }

  core::Reactor& sim_;
  double service_time_;
  Sink sink_;
  std::deque<Packet> queue_;
  bool busy_ = false;
};

/// Host IO engine: one server shared by every flow touching the host, with
/// per-flow weighted round-robin — receive flows carry the calibration's RX
/// weight. Models the duplex bus behaviour of §III / fig 2 scheme 5 and
/// mirrors the fluid substrate's weighted max-min bus resource.
class HostIoServer {
 public:
  using Sink = std::function<void(Packet, bool /*rx*/)>;

  HostIoServer(core::Reactor& sim, double service_time, double rx_weight,
               Sink sink)
      : sim_(sim),
        service_time_(service_time),
        rx_weight_(rx_weight),
        sink_(std::move(sink)) {}

  void push(Packet p, bool rx) {
    auto& q = queues_[key(p.flow, rx)];
    if (q.weight == 0.0) q.weight = rx ? rx_weight_ : 1.0;
    if (q.packets.empty()) {
      // A queue waking up must not claim "missed" service history: align its
      // virtual time with the least-served backlogged queue.
      bool any = false;
      double floor = 0.0;
      for (const auto& [k, other] : queues_) {
        if (other.packets.empty()) continue;
        const double vt = other.served / other.weight;
        if (!any || vt < floor) floor = vt;
        any = true;
      }
      if (any) q.served = std::max(q.served, floor * q.weight);
    }
    q.packets.push_back(p);
    q.rx = rx;
    if (!busy_) start_next();
  }

 private:
  struct FlowQueue {
    std::deque<Packet> packets;
    double weight = 0.0;
    double served = 0.0;
    bool rx = false;
  };

  static long key(int flow, bool rx) { return flow * 2 + (rx ? 1 : 0); }

  void start_next() {
    // Weighted round-robin: among backlogged flow queues, serve the one
    // furthest behind its weighted share.
    FlowQueue* best = nullptr;
    for (auto& [k, q] : queues_) {
      if (q.packets.empty()) continue;
      if (!best || q.served / q.weight < best->served / best->weight)
        best = &q;
    }
    if (!best) {
      busy_ = false;
      return;
    }
    busy_ = true;
    const Packet p = best->packets.front();
    const bool rx = best->rx;
    best->packets.pop_front();
    best->served += 1.0;
    sim_.schedule_in(service_time_, [this, p, rx] {
      sink_(p, rx);
      start_next();
    });
  }

  core::Reactor& sim_;
  double service_time_;
  double rx_weight_;
  Sink sink_;
  std::map<long, FlowQueue> queues_;
  bool busy_ = false;
};

struct FlowState {
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  long total_packets = 0;
  long injected = 0;
  long delivered = 0;
  long acked = 0;      // window mode
  long in_network = 0; // credit mode
  double next_pace = 0.0;
  double cwnd = 4.0;   // window mode: packets, ramps to kWindowPackets
  double finish = -1.0;
  bool intra_node = false;
};

class PacketSim {
 public:
  PacketSim(const graph::CommGraph& graph, const topo::NetworkCalibration& cal)
      : graph_(graph), cal_(cal) {
    ser_link_ = cal.mtu / cal.link_bandwidth;
    ser_io_ = cal.mtu / (cal.link_bandwidth * cal.host_duplex_factor);
    pace_ = cal.mtu / (cal.link_bandwidth * cal.single_stream_efficiency);

    flows_.resize(static_cast<size_t>(graph.size()));
    std::map<topo::NodeId, int> tx_count;
    std::map<topo::NodeId, int> rx_count;
    double total_packets = 0.0;
    for (graph::CommId i = 0; i < graph.size(); ++i) {
      auto& f = flows_[static_cast<size_t>(i)];
      const auto& c = graph.comm(i);
      f.src = c.src;
      f.dst = c.dst;
      f.intra_node = graph.is_intra_node(i);
      const double packets =
          std::max(1.0, std::floor((c.bytes + cal.mtu - 1.0) / cal.mtu));
      total_packets += packets;
      // Checked before the cast, which the ceiling keeps inside a long.
      BWS_CHECK(total_packets <= kMaxPackets,
                strformat("packet simulation must total at most %.0f "
                          "packets, got at least %.3g",
                          kMaxPackets, total_packets));
      f.total_packets = static_cast<long>(packets);
      if (!f.intra_node) {
        ++tx_count[c.src];
        ++rx_count[c.dst];
      }
    }
    // Duplex saturation per host (same gate as the fluid substrate): the IO
    // engine throttles to duplex_factor x link only under heavy
    // bidirectional load; otherwise it runs non-binding at 2 x link.
    for (const auto& [node, tx] : tx_count) {
      const auto rx_it = rx_count.find(node);
      if (rx_it != rx_count.end() && tx + rx_it->second >= 4)
        duplex_saturated_[node] = true;
    }
  }

  std::vector<double> run() {
    for (graph::CommId i = 0; i < graph_.size(); ++i) try_inject(i);
    sim_.run();

    std::vector<double> times(flows_.size());
    for (size_t i = 0; i < flows_.size(); ++i) {
      BWS_ASSERT(flows_[i].finish >= 0.0, "flow did not complete");
      times[i] = flows_[i].finish + cal_.latency;
    }
    return times;
  }

 private:
  FifoServer& uplink(topo::NodeId node) {
    auto it = uplinks_.find(node);
    if (it == uplinks_.end()) {
      it = uplinks_
               .emplace(node, std::make_unique<FifoServer>(
                                  sim_, ser_link_,
                                  [this](Packet p) { after_uplink(p); }))
               .first;
    }
    return *it->second;
  }

  FifoServer& downlink(topo::NodeId node) {
    auto it = downlinks_.find(node);
    if (it == downlinks_.end()) {
      it = downlinks_
               .emplace(node, std::make_unique<FifoServer>(
                                  sim_, ser_link_,
                                  [this](Packet p) { after_downlink(p); }))
               .first;
    }
    return *it->second;
  }

  HostIoServer& host_io(topo::NodeId node) {
    auto it = host_io_.find(node);
    if (it == host_io_.end()) {
      const bool saturated = duplex_saturated_.count(node) != 0;
      const double ser =
          saturated ? ser_io_
                    : cal_.mtu / (2.0 * cal_.link_bandwidth);
      const double rx_weight = saturated ? cal_.rx_bus_weight : 1.0;
      it = host_io_
               .emplace(node, std::make_unique<HostIoServer>(
                                  sim_, ser, rx_weight,
                                  [this](Packet p, bool rx) {
                                    after_host_io(p, rx);
                                  }))
               .first;
    }
    return *it->second;
  }

  [[nodiscard]] bool may_inject(const FlowState& f) const {
    if (f.injected >= f.total_packets) return false;
    if (f.intra_node) return true;  // no network flow control applies
    switch (cal_.flow_control) {
      case FlowControlKind::kTcpPauseFrames:
        return f.injected - f.acked < static_cast<long>(f.cwnd);
      case FlowControlKind::kStopAndGo:
        return f.injected - f.delivered < 4;  // shallow NIC pipeline
      case FlowControlKind::kCreditBased:
        return f.in_network < kCredits;
    }
    return false;
  }

  void try_inject(int flow_id) {
    auto& f = flows_[static_cast<size_t>(flow_id)];
    if (f.injected >= f.total_packets || pending_inject_[flow_id]) return;
    if (!may_inject(f)) return;

    const double when = std::max(sim_.now(), f.next_pace);
    if (f.intra_node) {
      // Shared-memory copy: paced at the shm bandwidth, no network stages.
      const double shm_pace = cal_.mtu / cal_.shm_bandwidth;
      pending_inject_[flow_id] = true;
      sim_.schedule_at(std::max(sim_.now(), f.next_pace), [this, flow_id,
                                                           shm_pace] {
        auto& fl = flows_[static_cast<size_t>(flow_id)];
        pending_inject_[flow_id] = false;
        ++fl.injected;
        fl.next_pace = sim_.now() + shm_pace;
        sim_.schedule_in(shm_pace, [this, flow_id] { deliver(flow_id); });
        try_inject(flow_id);
      });
      return;
    }

    // All modes: injection passes the source host IO engine first (NIC DMA),
    // then the mode-specific network stage.
    pending_inject_[flow_id] = true;
    sim_.schedule_at(when, [this, flow_id] {
      auto& fl = flows_[static_cast<size_t>(flow_id)];
      pending_inject_[flow_id] = false;
      ++fl.injected;
      ++fl.in_network;
      fl.next_pace = sim_.now() + pace_;
      Packet p{flow_id, fl.injected == fl.total_packets};
      host_io(fl.src).push(p, /*rx=*/false);
      try_inject(flow_id);
    });
  }

  // Path: src host IO -> (uplink -> downlink | wormhole path) -> dst host IO.
  void after_host_io(Packet p, bool rx) {
    auto& f = flows_[static_cast<size_t>(p.flow)];
    if (!rx) {
      if (cal_.flow_control == FlowControlKind::kStopAndGo) {
        wormhole_waiting_.push_back(p);
        pump_wormhole();
      } else {
        uplink(f.src).push(p);
      }
    } else {
      deliver(p.flow);
    }
  }

  void after_uplink(Packet p) {
    auto& f = flows_[static_cast<size_t>(p.flow)];
    downlink(f.dst).push(p);
  }

  void after_downlink(Packet p) {
    auto& f = flows_[static_cast<size_t>(p.flow)];
    if (cal_.flow_control == FlowControlKind::kCreditBased) {
      // Credit returns to the sender one propagation delay later.
      sim_.schedule_in(cal_.latency, [this, flow = p.flow] {
        --flows_[static_cast<size_t>(flow)].in_network;
        try_inject(flow);
      });
    }
    host_io(f.dst).push(p, /*rx=*/true);
  }

  // Wormhole engine: grant the path (uplink+downlink) to the first waiting
  // packet whose links are both free; blocked packets wait (Stop state).
  void pump_wormhole() {
    for (auto it = wormhole_waiting_.begin(); it != wormhole_waiting_.end();) {
      const Packet p = *it;
      auto& f = flows_[static_cast<size_t>(p.flow)];
      if (link_busy_[f.src * 2] || link_busy_[f.dst * 2 + 1]) {
        ++it;
        continue;
      }
      it = wormhole_waiting_.erase(it);
      link_busy_[f.src * 2] = true;
      link_busy_[f.dst * 2 + 1] = true;
      // Cut-through: one serialization across the whole path.
      sim_.schedule_in(ser_link_, [this, p] {
        auto& fl = flows_[static_cast<size_t>(p.flow)];
        link_busy_[fl.src * 2] = false;
        link_busy_[fl.dst * 2 + 1] = false;
        host_io(fl.dst).push(p, /*rx=*/true);
        pump_wormhole();
      });
    }
  }

  void deliver(int flow_id) {
    auto& f = flows_[static_cast<size_t>(flow_id)];
    ++f.delivered;
    if (cal_.flow_control == FlowControlKind::kTcpPauseFrames &&
        !f.intra_node) {
      // ACK after one propagation delay opens the window (and grows cwnd).
      sim_.schedule_in(cal_.latency, [this, flow_id] {
        auto& fl = flows_[static_cast<size_t>(flow_id)];
        ++fl.acked;
        fl.cwnd = std::min<double>(kWindowPackets, fl.cwnd + 1.0);
        try_inject(flow_id);
      });
    }
    if (f.delivered == f.total_packets) {
      f.finish = sim_.now();
    } else {
      // Delivery may reopen the Stop&Go pipeline (and never hurts others).
      try_inject(flow_id);
    }
  }

  const graph::CommGraph& graph_;
  topo::NetworkCalibration cal_;
  core::Reactor sim_;
  double ser_link_ = 0.0;
  double ser_io_ = 0.0;
  double pace_ = 0.0;
  std::vector<FlowState> flows_;
  std::map<topo::NodeId, std::unique_ptr<FifoServer>> uplinks_;
  std::map<topo::NodeId, std::unique_ptr<FifoServer>> downlinks_;
  std::map<topo::NodeId, std::unique_ptr<HostIoServer>> host_io_;
  std::map<int, bool> pending_inject_;
  std::map<int, bool> link_busy_;  // node*2 = uplink, node*2+1 = downlink
  std::map<topo::NodeId, bool> duplex_saturated_;
  std::deque<Packet> wormhole_waiting_;
};

}  // namespace

std::vector<double> measure_scheme_packet(const graph::CommGraph& graph,
                                          const topo::NetworkCalibration& cal) {
  BWS_CHECK(cal.link_bandwidth > 0.0, "link bandwidth must be set");
  if (graph.empty()) return {};
  PacketSim sim(graph, cal);
  return sim.run();
}

std::vector<double> measure_penalties_packet(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal) {
  const auto times = measure_scheme_packet(graph, cal);
  std::vector<double> penalties(times.size(), 1.0);
  for (graph::CommId i = 0; i < graph.size(); ++i) {
    const auto& c = graph.comm(i);
    const double t_ref = graph.is_intra_node(i)
                             ? cal.latency + c.bytes / cal.shm_bandwidth
                             : cal.reference_time(c.bytes);
    penalties[static_cast<size_t>(i)] = times[static_cast<size_t>(i)] / t_ref;
  }
  return penalties;
}

}  // namespace bwshare::flowsim
