#include "models/infiniband.hpp"

#include <algorithm>

#include "models/node_table.hpp"
#include "util/error.hpp"

namespace bwshare::models {

InfinibandModel::InfinibandModel(InfinibandParams params) : params_(params) {
  BWS_CHECK(params_.beta > 0.0, "beta must be positive");
  BWS_CHECK(params_.rx_weight > 0.0, "rx_weight must be positive");
  BWS_CHECK(params_.duplex_factor > 0.0, "duplex_factor must be positive");
}

std::string InfinibandModel::name() const { return "infiniband"; }

void InfinibandModel::penalties_into(const graph::CommGraph& graph,
                                     util::Arena& scratch,
                                     std::span<double> out) const {
  const size_t k = static_cast<size_t>(graph.size());
  BWS_CHECK(out.size() == k, "penalties_into output span size mismatch");
  util::Arena::Frame frame(scratch);
  const NodeTable t = make_node_table(graph, scratch);
  const double beta = params_.beta;
  const double w = params_.rx_weight;
  const double df = params_.duplex_factor;

  for (size_t i = 0; i < k; ++i) {
    out[i] = 1.0;
    if (t.src[i] < 0) continue;
    const auto s = static_cast<size_t>(t.src[i]);
    const auto d = static_cast<size_t>(t.dst[i]);
    const int out_src = t.out_degree[s];
    const int in_src = t.in_degree[s];
    const int in_dst = t.in_degree[d];
    const int out_dst = t.out_degree[d];

    // Source side: pure outgoing conflict shares the TX direction fairly;
    // a duplex conflict shares the weighted host bus.
    double p_src;
    if (in_src == 0) {
      p_src = out_src <= 1 ? 1.0 : beta * out_src;
    } else {
      p_src = beta * (out_src + w * in_src) / df;
    }

    // Destination side, symmetric; this comm is a receive flow there, so its
    // share of the bus is w times larger.
    double p_dst;
    if (out_dst == 0) {
      p_dst = in_dst <= 1 ? 1.0 : beta * in_dst;
    } else {
      p_dst = beta * (w * in_dst + out_dst) / (df * w);
    }

    out[i] = std::max(1.0, std::max(p_src, p_dst));
  }
}

}  // namespace bwshare::models
