// Per-node degree table shared by the penalty models' evaluation paths.
//
// The degree models (GigE, InfiniBand, Kim–Lee) read Δo/Δi of each
// communication's endpoints, and the Myrinet model groups communications by
// endpoint to find conflict components. CommGraph::out_degree/in_degree are
// linear scans, so asking them once per communication costs O(k²). This
// table answers every such lookup in O(1) after one O(k log k) build: a
// sort of packed endpoint keys and one numbering pass
// (graph/endpoint_keys.hpp, shared with FluidRateProvider::rates_into),
// entirely in caller-provided arena storage.
#pragma once

#include <span>

#include "graph/comm_graph.hpp"
#include "util/arena.hpp"

namespace bwshare::models {

struct NodeTable {
  /// Sorted unique endpoints of the graph's network communications.
  std::span<const topo::NodeId> nodes;
  /// Per communication: index into `nodes` of its source / destination,
  /// -1 for an intra-node communication (it never touches the network).
  std::span<const int> src;
  std::span<const int> dst;
  /// Per node index: Δo and Δi over network communications, as
  /// CommGraph::out_degree / in_degree count them.
  std::span<const int> out_degree;
  std::span<const int> in_degree;

  [[nodiscard]] size_t num_nodes() const { return nodes.size(); }
};

/// Build the table for `graph` in `arena`; the spans stay valid until the
/// caller rewinds the arena past this call.
[[nodiscard]] NodeTable make_node_table(const graph::CommGraph& graph,
                                        util::Arena& arena);

}  // namespace bwshare::models
