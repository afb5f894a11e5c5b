// Communication graphs (paper §IV-A, §V).
//
// A communication graph G has cluster nodes as vertices and concurrent
// point-to-point communications as labelled arcs. The models consume the
// node degrees: Δo(v) = number of communications leaving v (outgoing
// degree), Δi(v) = number arriving at v (incoming degree).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "topo/cluster.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::graph {

using CommId = int;

/// One point-to-point communication: an arc src -> dst carrying `bytes`.
/// The comm id *is* the identity on the hot path; human-readable labels are
/// interned at parse time and kept in side storage (CommGraph::label()) for
/// DOT output, rendering and error paths.
struct Comm {
  topo::NodeId src = 0;
  topo::NodeId dst = 0;
  double bytes = 0.0;
};

class CommGraph {
 public:
  CommGraph() = default;

  /// Add a labelled communication (the parse-time path); label must be
  /// unique and src != dst for network communications (intra-node arcs are
  /// allowed but flagged). The label is interned: stored once, indexed for
  /// find(), and never consulted again on the solving path.
  CommId add(std::string label, topo::NodeId src, topo::NodeId dst,
             double bytes);

  /// Add an unlabelled communication — the allocation-free hot path used by
  /// the simulator's per-component scratch graphs. No string storage, no
  /// label-index update; label() returns "" for such comms.
  CommId add(topo::NodeId src, topo::NodeId dst, double bytes);

  [[nodiscard]] int size() const { return static_cast<int>(comms_.size()); }
  [[nodiscard]] bool empty() const { return comms_.empty(); }
  // Inline: the rate solvers read every comm of the active graph per solve.
  [[nodiscard]] const Comm& comm(CommId id) const {
    BWS_CHECK(id >= 0 && id < size(),
              strformat("comm id %d out of range [0,%d)", id, size()));
    return comms_[static_cast<size_t>(id)];
  }
  [[nodiscard]] const std::vector<Comm>& comms() const { return comms_; }

  /// Human-readable label of a communication; empty for comms added via the
  /// unlabelled overload.
  [[nodiscard]] std::string_view label(CommId id) const;

  /// Find a communication by its label.
  [[nodiscard]] std::optional<CommId> find(const std::string& label) const;

  /// Drop all communications but keep allocated capacity — scratch graphs
  /// rebuilt per component solve reuse their storage across flushes.
  void clear();

  /// Pre-size comm storage (capacity is retained by clear()).
  void reserve(int n) { comms_.reserve(static_cast<size_t>(n)); }

  /// Largest node id referenced plus one.
  [[nodiscard]] int num_nodes() const { return num_nodes_; }

  /// Outgoing degree Δo(v): number of communications with source v.
  [[nodiscard]] int out_degree(topo::NodeId v) const;
  /// Incoming degree Δi(v): number of communications with destination v.
  [[nodiscard]] int in_degree(topo::NodeId v) const;

  /// Δo(i) = Δo(src(i)) and Δi(i) = Δi(dst(i)) for a communication.
  [[nodiscard]] int delta_o(CommId id) const;
  [[nodiscard]] int delta_i(CommId id) const;

  /// Co(i): ids of communications sharing i's source (including i).
  [[nodiscard]] std::vector<CommId> same_source(CommId id) const;
  /// Ci(i): ids of communications sharing i's destination (including i).
  [[nodiscard]] std::vector<CommId> same_destination(CommId id) const;

  [[nodiscard]] std::vector<CommId> comms_from(topo::NodeId v) const;
  [[nodiscard]] std::vector<CommId> comms_to(topo::NodeId v) const;

  /// True if the arc stays inside one SMP node (never crosses the network).
  [[nodiscard]] bool is_intra_node(CommId id) const;

 private:
  std::vector<Comm> comms_;
  // Interned labels, parallel to comms_ but only as long as the last
  // labelled add — unlabelled comms past the end implicitly have "".
  std::vector<std::string> labels_;
  std::unordered_map<std::string, CommId> by_label_;  // find()/dup check
  int num_nodes_ = 0;
};

}  // namespace bwshare::graph
