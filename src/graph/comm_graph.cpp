#include "graph/comm_graph.hpp"

#include <algorithm>
#include <functional>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::graph {

CommId CommGraph::add(std::string_view label, topo::NodeId src,
                      topo::NodeId dst, double bytes) {
  BWS_CHECK(!label.empty(), "communication label must not be empty");
  BWS_CHECK(src >= 0 && dst >= 0, "node ids must be non-negative");
  BWS_CHECK(bytes >= 0.0, "message size must be non-negative");
  const CommId id = static_cast<CommId>(comms_.size());
  // The label index keeps add() O(1): a linear duplicate scan would make
  // parsing or generating a scheme quadratic.
  if (2 * (comms_.size() + 1) > label_index_.size()) grow_label_index();
  const size_t slot = label_slot(label);
  BWS_CHECK(label_index_[slot] == 0,
            "duplicate communication label '" + std::string(label) + "'");
  // Give unlabelled comms added since the last label empty ranges, so
  // label_ends_ stays parallel.
  label_ends_.resize(static_cast<size_t>(id), label_chars_.size());
  label_chars_.append(label);
  label_ends_.push_back(label_chars_.size());
  label_index_[slot] = id + 1;
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
  const auto i = static_cast<size_t>(id);
  if (i >= label_ends_.size()) return {};
  const size_t begin = i == 0 ? 0 : label_ends_[i - 1];
  return std::string_view(label_chars_).substr(begin, label_ends_[i] - begin);
}

std::optional<CommId> CommGraph::find(std::string_view label) const {
  if (label_index_.empty()) return std::nullopt;
  const CommId entry = label_index_[label_slot(label)];
  if (entry == 0) return std::nullopt;
  return entry - 1;
}

void CommGraph::clear() {
  // Each clear keeps its vector's capacity and, for these element types,
  // touches no element: the engine clears a scratch graph per component
  // solve.
  comms_.clear();
  label_chars_.clear();
  label_ends_.clear();
  label_index_.clear();
  num_nodes_ = 0;
}

void CommGraph::grow_label_index() {
  size_t slots = label_index_.empty() ? 16 : label_index_.size();
  while (slots < 2 * (comms_.size() + 1)) slots *= 2;
  label_index_.assign(slots, 0);
  for (size_t i = 0; i < label_ends_.size(); ++i) {
    const std::string_view l = label(static_cast<CommId>(i));
    if (!l.empty()) label_index_[label_slot(l)] = static_cast<CommId>(i) + 1;
  }
}

size_t CommGraph::label_slot(std::string_view label) const {
  const size_t mask = label_index_.size() - 1;
  size_t slot = std::hash<std::string_view>{}(label) & mask;
  // Load at most 1/2: the probe always reaches an empty slot.
  while (label_index_[slot] != 0 &&
         this->label(label_index_[slot] - 1) != label) {
    slot = (slot + 1) & mask;
  }
  return slot;
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
