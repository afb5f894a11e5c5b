// One-sort endpoint numbering, shared by the arena-backed solvers that group
// a graph's communications by node: the fluid provider's host incidence
// (FluidRateProvider::rates_into) and the models' node table
// (models::make_node_table).
//
// Each communication contributes one packed key per endpoint it uses,
// (node << 32) | (comm << 1) | role, with role 0 for the source and 1 for the
// destination; an intra-node communication (src == dst) contributes its
// source key only. One ascending sort then orders the keys by node id, and
// within a node by comm id. A single linear pass over the result therefore
// numbers the distinct nodes in ascending id order and meets each node's
// communications in comm order: the order of std::map<NodeId, vector>
// buckets filled by a loop over the comms, with no per-comm binary search.
#pragma once

#include <cstdint>
#include <span>

#include "graph/comm_graph.hpp"
#include "util/arena.hpp"

namespace bwshare::graph {

struct EndpointKey {
  // No initializer: the keys live in uninitialized arena spans, which
  // require a trivially default-constructible type.
  std::uint64_t bits;

  [[nodiscard]] topo::NodeId node() const {
    return static_cast<topo::NodeId>(bits >> 32);
  }
  [[nodiscard]] CommId comm() const {
    return static_cast<CommId>((bits & 0xffffffffu) >> 1);
  }
  /// True for the destination key of a network communication.
  [[nodiscard]] bool is_dst() const { return (bits & 1u) != 0; }

  friend bool operator<(EndpointKey a, EndpointKey b) {
    return a.bits < b.bits;
  }
};

/// The graph's endpoint keys, sorted, in `arena` storage that stays valid
/// until the caller rewinds past this call. Node ids are non-negative
/// (CommGraph::add checks), so the packed order is the (node, comm, role)
/// order.
[[nodiscard]] std::span<const EndpointKey> sorted_endpoint_keys(
    const CommGraph& graph, util::Arena& arena);

}  // namespace bwshare::graph
