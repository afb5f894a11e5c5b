#include "graph/conflict.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace bwshare::graph {

std::string to_string(ConflictKind kind) {
  switch (kind) {
    case ConflictKind::kNone: return "none";
    case ConflictKind::kOutgoing: return "outgoing";
    case ConflictKind::kIncome: return "income";
    case ConflictKind::kIncomeOutgo: return "income/outgo";
    case ConflictKind::kMixed: return "mixed";
  }
  return "?";
}

ConflictKind CommConflicts::dominant() const {
  const int count = (outgoing ? 1 : 0) + (income ? 1 : 0) +
                    (income_outgo ? 1 : 0);
  if (count == 0) return ConflictKind::kNone;
  if (count > 1) return ConflictKind::kMixed;
  if (outgoing) return ConflictKind::kOutgoing;
  if (income) return ConflictKind::kIncome;
  return ConflictKind::kIncomeOutgo;
}

std::vector<CommConflicts> classify_conflicts(const CommGraph& graph) {
  std::vector<CommConflicts> out(static_cast<size_t>(graph.size()));
  for (CommId i = 0; i < graph.size(); ++i) {
    if (graph.is_intra_node(i)) continue;
    auto& c = out[static_cast<size_t>(i)];
    const auto& comm = graph.comm(i);
    c.outgoing = graph.out_degree(comm.src) > 1;
    c.income = graph.in_degree(comm.dst) > 1;
    // Income/outgo: the source also receives, or the destination also sends.
    c.income_outgo = graph.in_degree(comm.src) > 0 ||
                     graph.out_degree(comm.dst) > 0;
  }
  return out;
}

ConflictGraph::ConflictGraph(const CommGraph& graph)
    : n_(graph.size()),
      adj_(static_cast<size_t>(n_),
           std::vector<bool>(static_cast<size_t>(n_), false)) {
  for (CommId i = 0; i < n_; ++i) {
    if (graph.is_intra_node(i)) continue;
    for (CommId j = i + 1; j < n_; ++j) {
      if (graph.is_intra_node(j)) continue;
      const auto& a = graph.comm(i);
      const auto& b = graph.comm(j);
      if (a.src == b.src || a.dst == b.dst) {
        adj_[static_cast<size_t>(i)][static_cast<size_t>(j)] = true;
        adj_[static_cast<size_t>(j)][static_cast<size_t>(i)] = true;
      }
    }
  }
}

bool ConflictGraph::conflicts(CommId a, CommId b) const {
  BWS_CHECK(a >= 0 && a < n_ && b >= 0 && b < n_, "comm id out of range");
  return adj_[static_cast<size_t>(a)][static_cast<size_t>(b)];
}

const std::vector<bool>& ConflictGraph::row(CommId a) const {
  BWS_CHECK(a >= 0 && a < n_, "comm id out of range");
  return adj_[static_cast<size_t>(a)];
}

int ConflictGraph::degree(CommId a) const {
  const auto& r = row(a);
  return static_cast<int>(std::count(r.begin(), r.end(), true));
}

std::vector<std::vector<CommId>> ConflictGraph::components() const {
  std::vector<std::vector<CommId>> comps;
  std::vector<bool> seen(static_cast<size_t>(n_), false);
  for (CommId start = 0; start < n_; ++start) {
    if (seen[static_cast<size_t>(start)]) continue;
    std::vector<CommId> comp;
    std::vector<CommId> stack{start};
    seen[static_cast<size_t>(start)] = true;
    while (!stack.empty()) {
      const CommId v = stack.back();
      stack.pop_back();
      comp.push_back(v);
      for (CommId w = 0; w < n_; ++w) {
        if (!seen[static_cast<size_t>(w)] &&
            adj_[static_cast<size_t>(v)][static_cast<size_t>(w)]) {
          seen[static_cast<size_t>(w)] = true;
          stack.push_back(w);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

StronglySlowSets strongly_slow_sets(const CommGraph& graph, CommId id) {
  StronglySlowSets out;
  const auto co = graph.same_source(id);
  const auto ci = graph.same_destination(id);

  int max_di = 0;
  for (CommId j : co) max_di = std::max(max_di, graph.delta_i(j));
  for (CommId j : co)
    if (graph.delta_i(j) == max_di) out.cm_o.push_back(j);

  int max_do = 0;
  for (CommId j : ci) max_do = std::max(max_do, graph.delta_o(j));
  for (CommId j : ci)
    if (graph.delta_o(j) == max_do) out.cm_i.push_back(j);

  out.in_cm_o =
      std::find(out.cm_o.begin(), out.cm_o.end(), id) != out.cm_o.end();
  out.in_cm_i =
      std::find(out.cm_i.begin(), out.cm_i.end(), id) != out.cm_i.end();
  return out;
}

}  // namespace bwshare::graph
