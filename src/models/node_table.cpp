#include "models/node_table.hpp"

#include "graph/endpoint_keys.hpp"

namespace bwshare::models {

NodeTable make_node_table(const graph::CommGraph& graph, util::Arena& arena) {
  const auto& comms = graph.comms();
  const size_t k = comms.size();
  // Sized for the worst case of one node per endpoint; the table exposes the
  // first num_nodes() entries.
  auto nodes = arena.make_span_uninit<topo::NodeId>(2 * k);
  auto out_degree = arena.make_span_uninit<int>(2 * k);
  auto in_degree = arena.make_span_uninit<int>(2 * k);
  auto src = arena.make_span_uninit<int>(k);
  auto dst = arena.make_span_uninit<int>(k);
  size_t m = 0;
  {
    // The keys are only needed for the numbering pass.
    util::Arena::Frame frame(arena);
    for (const graph::EndpointKey key :
         graph::sorted_endpoint_keys(graph, arena)) {
      const auto i = static_cast<size_t>(key.comm());
      if (comms[i].src == comms[i].dst) {
        src[i] = dst[i] = -1;
        continue;
      }
      if (m == 0 || nodes[m - 1] != key.node()) {
        nodes[m] = key.node();
        out_degree[m] = in_degree[m] = 0;
        ++m;
      }
      const int v = static_cast<int>(m - 1);
      if (key.is_dst()) {
        dst[i] = v;
        ++in_degree[m - 1];
      } else {
        src[i] = v;
        ++out_degree[m - 1];
      }
    }
  }
  return NodeTable{nodes.first(m), src, dst, out_degree.first(m),
                   in_degree.first(m)};
}

}  // namespace bwshare::models
