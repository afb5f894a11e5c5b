#include "graph/comm_graph.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::graph {

CommId CommGraph::add(std::string label, topo::NodeId src, topo::NodeId dst,
                      double bytes) {
  BWS_CHECK(!label.empty(), "communication label must not be empty");
  BWS_CHECK(src >= 0 && dst >= 0, "node ids must be non-negative");
  BWS_CHECK(bytes >= 0.0, "message size must be non-negative");
  const CommId id = static_cast<CommId>(comms_.size());
  // The label index keeps add() O(1) — graphs are rebuilt per refresh on
  // the simulator's hot path, so a linear duplicate scan would make every
  // rebuild quadratic.
  BWS_CHECK(by_label_.emplace(label, id).second,
            "duplicate communication label '" + label + "'");
  // Backfill ""s if unlabelled comms came first, so labels_ stays parallel.
  labels_.resize(static_cast<size_t>(id));
  labels_.push_back(std::move(label));
  comms_.push_back(Comm{src, dst, bytes});
  num_nodes_ = std::max(num_nodes_, std::max(src, dst) + 1);
  return id;
}

CommId CommGraph::add(topo::NodeId src, topo::NodeId dst, double bytes) {
  BWS_CHECK(src >= 0 && dst >= 0, "node ids must be non-negative");
  BWS_CHECK(bytes >= 0.0, "message size must be non-negative");
  const CommId id = static_cast<CommId>(comms_.size());
  comms_.push_back(Comm{src, dst, bytes});
  num_nodes_ = std::max(num_nodes_, std::max(src, dst) + 1);
  return id;
}

std::string_view CommGraph::label(CommId id) const {
  BWS_CHECK(id >= 0 && id < size(),
            strformat("comm id %d out of range [0,%d)", id, size()));
  if (static_cast<size_t>(id) >= labels_.size()) return {};
  return labels_[static_cast<size_t>(id)];
}

std::optional<CommId> CommGraph::find(const std::string& label) const {
  const auto it = by_label_.find(label);
  if (it == by_label_.end()) return std::nullopt;
  return it->second;
}

void CommGraph::clear() {
  comms_.clear();
  labels_.clear();
  by_label_.clear();
  num_nodes_ = 0;
}

int CommGraph::out_degree(topo::NodeId v) const {
  int deg = 0;
  for (const auto& c : comms_)
    if (c.src == v && c.src != c.dst) ++deg;
  return deg;
}

int CommGraph::in_degree(topo::NodeId v) const {
  int deg = 0;
  for (const auto& c : comms_)
    if (c.dst == v && c.src != c.dst) ++deg;
  return deg;
}

int CommGraph::delta_o(CommId id) const { return out_degree(comm(id).src); }

int CommGraph::delta_i(CommId id) const { return in_degree(comm(id).dst); }

std::vector<CommId> CommGraph::same_source(CommId id) const {
  const topo::NodeId v = comm(id).src;
  return comms_from(v);
}

std::vector<CommId> CommGraph::same_destination(CommId id) const {
  const topo::NodeId v = comm(id).dst;
  return comms_to(v);
}

std::vector<CommId> CommGraph::comms_from(topo::NodeId v) const {
  std::vector<CommId> out;
  for (CommId i = 0; i < size(); ++i) {
    const auto& c = comms_[static_cast<size_t>(i)];
    if (c.src == v && c.src != c.dst) out.push_back(i);
  }
  return out;
}

std::vector<CommId> CommGraph::comms_to(topo::NodeId v) const {
  std::vector<CommId> out;
  for (CommId i = 0; i < size(); ++i) {
    const auto& c = comms_[static_cast<size_t>(i)];
    if (c.dst == v && c.src != c.dst) out.push_back(i);
  }
  return out;
}

bool CommGraph::is_intra_node(CommId id) const {
  const auto& c = comm(id);
  return c.src == c.dst;
}

}  // namespace bwshare::graph
