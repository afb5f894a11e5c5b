#include "flowsim/fluid_network.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "graph/endpoint_keys.hpp"
#include "util/error.hpp"

namespace bwshare::flowsim {

std::vector<double> RateProvider::rates(
    const graph::CommGraph& active,
    std::span<const graph::CommId> subset) const {
  // Safe default for providers without a restricted solver: solve the full
  // graph and project. Always exact, never faster.
  const auto all = rates(active);
  std::vector<double> out;
  out.reserve(subset.size());
  for (const graph::CommId id : subset) {
    BWS_CHECK(id >= 0 && id < active.size(), "subset comm id out of range");
    out.push_back(all[static_cast<size_t>(id)]);
  }
  return out;
}

void RateProvider::rates_into(const graph::CommGraph& active,
                              util::Arena& /*scratch*/,
                              std::span<double> out) const {
  // Safe default: the allocating full solve, copied out. Providers on the
  // engine's hot path override this with an arena-native implementation.
  const auto all = rates(active);
  BWS_CHECK(out.size() == all.size(), "rates_into output span size mismatch");
  std::copy(all.begin(), all.end(), out.begin());
}

std::vector<int> RateProvider::coupling_keys(topo::NodeId /*src*/,
                                             topo::NodeId /*dst*/) const {
  return {};
}

FluidRateProvider::FluidRateProvider(topo::NetworkCalibration cal)
    : cal_(cal) {
  BWS_CHECK(cal_.link_bandwidth > 0.0, "link bandwidth must be positive");
  BWS_CHECK(cal_.single_stream_efficiency > 0.0 &&
                cal_.single_stream_efficiency <= 1.0,
            "single-stream efficiency must be in (0,1]");
}

AllocationProblem FluidRateProvider::build_problem(
    const graph::CommGraph& active) const {
  const int n = active.size();
  const double link = cal_.link_bandwidth;

  AllocationProblem problem;
  problem.num_flows = n;
  problem.weights.assign(static_cast<size_t>(n), 1.0);
  problem.caps.assign(static_cast<size_t>(n), 0.0);

  // Group flows by endpoint. Keyed by node id; .first = TX members,
  // .second = RX members (network flows only).
  std::map<topo::NodeId, std::vector<FlowIndex>> tx_at;
  std::map<topo::NodeId, std::vector<FlowIndex>> rx_at;
  std::map<topo::NodeId, std::vector<FlowIndex>> shm_at;
  for (graph::CommId i = 0; i < n; ++i) {
    const auto& c = active.comm(i);
    if (active.is_intra_node(i)) {
      shm_at[c.src].push_back(i);
      problem.caps[static_cast<size_t>(i)] = cal_.shm_bandwidth;
      continue;
    }
    tx_at[c.src].push_back(i);
    rx_at[c.dst].push_back(i);
    problem.caps[static_cast<size_t>(i)] =
        link * cal_.single_stream_efficiency;
  }

  // Host duplex saturation: the NIC's DMA path degrades to ~duplex_factor x
  // link only under heavy bidirectional load — at least three flows with
  // both directions active (fig 2 scheme 5's income/outgo anomaly). Mild
  // bidirectional traffic (e.g. a ring, or 2 TX + 1 RX) runs at full duplex,
  // which is why the paper's same-direction conflict models stay accurate on
  // the fig-7 graphs.
  const auto duplex_saturated = [&](topo::NodeId node) {
    const auto tx_it = tx_at.find(node);
    const auto rx_it = rx_at.find(node);
    if (tx_it == tx_at.end() || rx_it == rx_at.end()) return false;
    const size_t tx_n = tx_it->second.size();
    const size_t rx_n = rx_it->second.size();
    return tx_n + rx_n >= 4 && tx_n >= 1 && rx_n >= 1;
  };

  // RX weighting: a receive flow entering a duplex-saturated host gets
  // priority on the shared bus (Stop&Go / credit FC favour the receive DMA
  // engine; see topo/network.hpp).
  for (const auto& [node, rx] : rx_at) {
    if (!duplex_saturated(node)) continue;
    for (FlowIndex f : rx)
      problem.weights[static_cast<size_t>(f)] = cal_.rx_bus_weight;
  }

  // Host TX link (one direction of the cable).
  for (const auto& [node, members] : tx_at)
    problem.resources.push_back(Resource{link, members});
  // Host RX link.
  for (const auto& [node, members] : rx_at)
    problem.resources.push_back(Resource{link, members});
  // Host duplex bus when saturated.
  for (const auto& [node, tx] : tx_at) {
    if (!duplex_saturated(node)) continue;
    Resource bus{link * cal_.host_duplex_factor, tx};
    const auto& rx = rx_at.at(node);
    bus.members.insert(bus.members.end(), rx.begin(), rx.end());
    problem.resources.push_back(std::move(bus));
  }
  // Shared-memory engine per node for intra-node copies.
  for (const auto& [node, members] : shm_at)
    problem.resources.push_back(Resource{cal_.shm_bandwidth, members});

  return problem;
}

std::vector<double> FluidRateProvider::rates(
    const graph::CommGraph& active) const {
  std::vector<double> out(static_cast<size_t>(active.size()), 0.0);
  rates_into(active, util::Arena::thread_local_instance(), out);
  return out;
}

void FluidRateProvider::rates_into(const graph::CommGraph& active,
                                   util::Arena& scratch,
                                   std::span<double> out) const {
  const int n = active.size();
  BWS_CHECK(out.size() == static_cast<size_t>(n),
            "rates_into output span size mismatch");
  if (n == 0) return;
  util::Arena::Frame frame(scratch);
  const double link = cal_.link_bandwidth;

  auto weights = scratch.make_span_uninit<double>(static_cast<size_t>(n));
  std::fill(weights.begin(), weights.end(), 1.0);
  auto caps = scratch.make_span_uninit<double>(static_cast<size_t>(n));
  auto intra = scratch.make_span_uninit<char>(static_cast<size_t>(n));
  size_t n_net = 0;
  for (graph::CommId i = 0; i < n; ++i) {
    intra[static_cast<size_t>(i)] = active.is_intra_node(i) ? 1 : 0;
    if (intra[static_cast<size_t>(i)]) {
      caps[static_cast<size_t>(i)] = cal_.shm_bandwidth;
    } else {
      caps[static_cast<size_t>(i)] = link * cal_.single_stream_efficiency;
      ++n_net;
    }
  }

  // Per-node member buckets — the arena stand-in for the three
  // std::map<NodeId, vector<FlowIndex>> incidence maps of build_problem().
  // One pass over the sorted endpoint keys numbers the nodes in ascending id
  // order and fills each node's TX, RX and shm bucket in comm order, which
  // pins the resource ordering (and thus bitwise results) to build_problem().
  const auto keys = graph::sorted_endpoint_keys(active, scratch);
  auto tx_members = scratch.make_span_uninit<FlowIndex>(n_net);
  auto rx_members = scratch.make_span_uninit<FlowIndex>(n_net);
  auto shm_members =
      scratch.make_span_uninit<FlowIndex>(static_cast<size_t>(n) - n_net);
  // Bucket start per node index, plus an end sentinel; a node's bucket is
  // [off[k], off[k + 1]). Sized for the worst case of one node per key.
  auto tx_off = scratch.make_span_uninit<int>(keys.size() + 1);
  auto rx_off = scratch.make_span_uninit<int>(keys.size() + 1);
  auto shm_off = scratch.make_span_uninit<int>(keys.size() + 1);
  size_t m = 0;
  int tx_at = 0;
  int rx_at = 0;
  int shm_at = 0;
  for (size_t p = 0; p < keys.size(); ++p) {
    if (p == 0 || keys[p].node() != keys[p - 1].node()) {
      tx_off[m] = tx_at;
      rx_off[m] = rx_at;
      shm_off[m] = shm_at;
      ++m;
    }
    const FlowIndex f = keys[p].comm();
    if (keys[p].is_dst())
      rx_members[static_cast<size_t>(rx_at++)] = f;
    else if (intra[static_cast<size_t>(f)])
      shm_members[static_cast<size_t>(shm_at++)] = f;
    else
      tx_members[static_cast<size_t>(tx_at++)] = f;
  }
  tx_off[m] = tx_at;
  rx_off[m] = rx_at;
  shm_off[m] = shm_at;
  const auto tx_n = [&](size_t k) { return tx_off[k + 1] - tx_off[k]; };
  const auto rx_n = [&](size_t k) { return rx_off[k + 1] - rx_off[k]; };
  const auto shm_n = [&](size_t k) { return shm_off[k + 1] - shm_off[k]; };
  const auto tx_bucket = [&](size_t k) {
    return std::span<const FlowIndex>(
        tx_members.data() + tx_off[k], static_cast<size_t>(tx_n(k)));
  };
  const auto rx_bucket = [&](size_t k) {
    return std::span<const FlowIndex>(
        rx_members.data() + rx_off[k], static_cast<size_t>(rx_n(k)));
  };

  // Host duplex saturation (see build_problem for the modelling rationale).
  auto sat = scratch.make_span_uninit<char>(m);
  for (size_t k = 0; k < m; ++k)
    sat[k] = (tx_n(k) >= 1 && rx_n(k) >= 1 && tx_n(k) + rx_n(k) >= 4) ? 1 : 0;

  // RX weighting at duplex-saturated hosts.
  for (size_t k = 0; k < m; ++k) {
    if (!(rx_n(k) > 0 && sat[k])) continue;
    for (const FlowIndex f : rx_bucket(k))
      weights[static_cast<size_t>(f)] = cal_.rx_bus_weight;
  }

  // Resource table, in build_problem order: host TX per node, host RX per
  // node, duplex bus at saturated nodes, shm engine per node.
  size_t n_res = 0;
  size_t dup_total = 0;
  for (size_t k = 0; k < m; ++k) {
    if (tx_n(k) > 0) ++n_res;
    if (rx_n(k) > 0) ++n_res;
    if (tx_n(k) > 0 && sat[k]) {
      ++n_res;
      dup_total += static_cast<size_t>(tx_n(k) + rx_n(k));
    }
    if (shm_n(k) > 0) ++n_res;
  }
  auto resources = scratch.make_span<ResourceView>(n_res);
  auto dup_buf = scratch.make_span_uninit<FlowIndex>(dup_total);
  size_t res_at = 0;
  size_t dup_at = 0;
  for (size_t k = 0; k < m; ++k)
    if (tx_n(k) > 0) resources[res_at++] = {link, tx_bucket(k)};
  for (size_t k = 0; k < m; ++k)
    if (rx_n(k) > 0) resources[res_at++] = {link, rx_bucket(k)};
  for (size_t k = 0; k < m; ++k) {
    if (!(tx_n(k) > 0 && sat[k])) continue;
    FlowIndex* const base = dup_buf.data() + dup_at;
    for (const FlowIndex f : tx_bucket(k)) dup_buf[dup_at++] = f;
    for (const FlowIndex f : rx_bucket(k)) dup_buf[dup_at++] = f;
    resources[res_at++] = {
        link * cal_.host_duplex_factor,
        std::span<const FlowIndex>(
            base, static_cast<size_t>(tx_n(k) + rx_n(k)))};
  }
  for (size_t k = 0; k < m; ++k)
    if (shm_n(k) > 0)
      resources[res_at++] = {
          cal_.shm_bandwidth,
          std::span<const FlowIndex>(
              shm_members.data() + shm_off[k], static_cast<size_t>(shm_n(k)))};
  BWS_ASSERT(res_at == n_res, "resource table fill mismatch");

  AllocationProblemView view;
  view.num_flows = n;
  view.weights = weights;
  view.caps = caps;
  view.resources = resources;
  max_min_rates_into(view, scratch, out);
}

std::vector<double> measure_scheme_fluid(const graph::CommGraph& graph,
                                         const topo::NetworkCalibration& cal) {
  const FluidRateProvider provider(cal);
  const int n = graph.size();
  std::vector<double> finish(static_cast<size_t>(n), 0.0);
  if (n == 0) return finish;

  std::vector<double> remaining(static_cast<size_t>(n));
  std::vector<bool> done(static_cast<size_t>(n), false);
  for (graph::CommId i = 0; i < n; ++i)
    remaining[static_cast<size_t>(i)] = graph.comm(i).bytes;

  double now = 0.0;
  int active_count = n;
  while (active_count > 0) {
    // Rebuild the active sub-graph; rates do not depend on labels.
    graph::CommGraph active;
    std::vector<graph::CommId> index;  // active id -> original id
    for (graph::CommId i = 0; i < n; ++i) {
      if (done[static_cast<size_t>(i)]) continue;
      const auto& c = graph.comm(i);
      active.add(c.src, c.dst, remaining[static_cast<size_t>(i)]);
      index.push_back(i);
    }
    const auto rates = provider.rates(active);
    BWS_ASSERT(rates.size() == index.size(), "rate provider size mismatch");

    // Next completion.
    double dt = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < index.size(); ++k) {
      BWS_CHECK(rates[k] > 0.0, "active communication got zero rate");
      dt = std::min(dt, remaining[static_cast<size_t>(index[k])] / rates[k]);
    }
    now += dt;
    for (size_t k = 0; k < index.size(); ++k) {
      const graph::CommId i = index[k];
      remaining[static_cast<size_t>(i)] -= rates[k] * dt;
      if (remaining[static_cast<size_t>(i)] <= 1e-6) {
        done[static_cast<size_t>(i)] = true;
        finish[static_cast<size_t>(i)] = now + cal.latency;
        --active_count;
      }
    }
  }
  return finish;
}

std::vector<double> measure_penalties(const graph::CommGraph& graph,
                                      const topo::NetworkCalibration& cal) {
  const auto times = measure_scheme_fluid(graph, cal);
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

std::vector<double> saturated_penalties(const graph::CommGraph& graph,
                                        const topo::NetworkCalibration& cal) {
  const FluidRateProvider provider(cal);
  const auto rates = provider.rates(graph);
  std::vector<double> penalties(rates.size(), 1.0);
  for (graph::CommId i = 0; i < graph.size(); ++i) {
    const double ref = graph.is_intra_node(i) ? cal.shm_bandwidth
                                              : cal.reference_bandwidth();
    penalties[static_cast<size_t>(i)] = ref / rates[static_cast<size_t>(i)];
  }
  return penalties;
}

}  // namespace bwshare::flowsim
