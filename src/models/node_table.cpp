#include "models/node_table.hpp"

#include <algorithm>

namespace bwshare::models {

NodeTable make_node_table(const graph::CommGraph& graph, util::Arena& arena) {
  const auto& comms = graph.comms();
  const size_t k = comms.size();
  auto node_buf = arena.make_span_uninit<topo::NodeId>(2 * k);
  size_t nn = 0;
  for (const auto& c : comms) {
    if (c.src == c.dst) continue;
    node_buf[nn++] = c.src;
    node_buf[nn++] = c.dst;
  }
  std::sort(node_buf.begin(), node_buf.begin() + static_cast<long>(nn));
  const auto nodes = node_buf.first(static_cast<size_t>(
      std::unique(node_buf.begin(), node_buf.begin() + static_cast<long>(nn)) -
      node_buf.begin()));
  const auto node_idx = [&](topo::NodeId v) {
    return static_cast<int>(std::lower_bound(nodes.begin(), nodes.end(), v) -
                            nodes.begin());
  };

  auto src = arena.make_span_uninit<int>(k);
  auto dst = arena.make_span_uninit<int>(k);
  auto out_degree = arena.make_span<int>(nodes.size());
  auto in_degree = arena.make_span<int>(nodes.size());
  for (size_t i = 0; i < k; ++i) {
    const auto& c = comms[i];
    if (c.src == c.dst) {
      src[i] = dst[i] = -1;
      continue;
    }
    src[i] = node_idx(c.src);
    dst[i] = node_idx(c.dst);
    ++out_degree[static_cast<size_t>(src[i])];
    ++in_degree[static_cast<size_t>(dst[i])];
  }
  return NodeTable{nodes, src, dst, out_degree, in_degree};
}

}  // namespace bwshare::models
