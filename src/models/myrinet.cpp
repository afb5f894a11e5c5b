#include "models/myrinet.hpp"

#include <algorithm>
#include <limits>

#include "models/node_table.hpp"
#include "util/error.hpp"

namespace bwshare::models {

MyrinetModel::MyrinetModel(MyrinetParams params) : params_(params) {
  BWS_CHECK(params_.max_state_sets > 0, "max_state_sets must be positive");
}

std::string MyrinetModel::name() const { return "myrinet"; }

MyrinetModel::Analysis MyrinetModel::analyze(const graph::CommGraph& graph,
                                             bool materialize_sets) const {
  Analysis out;
  const int n = graph.size();
  out.emission.assign(static_cast<size_t>(n), 0);
  out.min_emission.assign(static_cast<size_t>(n), 0);
  out.penalty.assign(static_cast<size_t>(n), 1.0);
  if (n == 0) return out;

  const graph::ConflictGraph conflicts(graph);
  const auto components = conflicts.components();

  // Per-component enumeration. Component set counts multiply globally.
  std::vector<uint64_t> comp_sets(components.size(), 1);
  // In-component emission count per comm.
  std::vector<uint64_t> local_emission(static_cast<size_t>(n), 0);
  std::vector<size_t> comp_of(static_cast<size_t>(n), 0);
  // Per-component materialized sets (comm ids), for cross-product display.
  std::vector<std::vector<std::vector<graph::CommId>>> comp_mis(
      components.size());

  for (size_t ci = 0; ci < components.size(); ++ci) {
    const auto& comp = components[ci];
    AdjacencyMatrix local(static_cast<int>(comp.size()));
    for (size_t a = 0; a < comp.size(); ++a) {
      comp_of[static_cast<size_t>(comp[a])] = ci;
      for (size_t b = a + 1; b < comp.size(); ++b)
        if (conflicts.conflicts(comp[a], comp[b]))
          local.add_edge(static_cast<int>(a), static_cast<int>(b));
    }
    const MisResult mis =
        enumerate_maximal_independent_sets(local, params_.max_state_sets);
    if (!mis.complete) out.complete = false;
    comp_sets[ci] = mis.sets.size();
    const auto counts = emission_counts(mis, static_cast<int>(comp.size()));
    for (size_t a = 0; a < comp.size(); ++a)
      local_emission[static_cast<size_t>(comp[a])] = counts[a];
    if (materialize_sets) {
      comp_mis[ci].reserve(mis.sets.size());
      for (const auto& set : mis.sets) {
        std::vector<graph::CommId> ids;
        ids.reserve(set.size());
        for (int v : set) ids.push_back(comp[static_cast<size_t>(v)]);
        comp_mis[ci].push_back(std::move(ids));
      }
    }
  }

  // Global state-set count (saturating).
  unsigned __int128 total = 1;
  constexpr uint64_t kLimit = std::numeric_limits<uint64_t>::max();
  for (uint64_t m : comp_sets) {
    total *= m;
    if (total > kLimit) {
      total = kLimit;
      out.complete = false;
      break;
    }
  }
  out.num_state_sets = static_cast<uint64_t>(total);

  // Global emission = local count x product of the other components' counts.
  for (graph::CommId i = 0; i < n; ++i) {
    const size_t ci = comp_of[static_cast<size_t>(i)];
    const uint64_t others =
        comp_sets[ci] == 0 ? 0 : out.num_state_sets / comp_sets[ci];
    out.emission[static_cast<size_t>(i)] =
        local_emission[static_cast<size_t>(i)] * others;
  }

  // Per-source-node minimum over outgoing *network* communications: the NIC
  // shares the card fairly, so each outgoing comm moves at the slowest
  // sibling's pace (paper fig 6 "Minimum" row).
  std::vector<uint64_t> min_local(static_cast<size_t>(n), 0);
  for (graph::CommId i = 0; i < n; ++i) {
    if (graph.is_intra_node(i)) {
      out.min_emission[static_cast<size_t>(i)] =
          out.emission[static_cast<size_t>(i)];
      min_local[static_cast<size_t>(i)] =
          local_emission[static_cast<size_t>(i)];
      continue;
    }
    uint64_t lo = local_emission[static_cast<size_t>(i)];
    uint64_t lo_global = out.emission[static_cast<size_t>(i)];
    for (graph::CommId j : graph.same_source(i)) {
      lo = std::min(lo, local_emission[static_cast<size_t>(j)]);
      lo_global = std::min(lo_global, out.emission[static_cast<size_t>(j)]);
    }
    min_local[static_cast<size_t>(i)] = lo;
    out.min_emission[static_cast<size_t>(i)] = lo_global;
  }

  // Penalty = #sets / clamped emission, computed per component so the result
  // is exact even when the global product saturates.
  for (graph::CommId i = 0; i < n; ++i) {
    const size_t ci = comp_of[static_cast<size_t>(i)];
    const uint64_t lo = min_local[static_cast<size_t>(i)];
    if (lo == 0) {
      // A comm that never sends in any state set (cannot happen for maximal
      // sets, but be defensive against an early enumeration stop).
      out.penalty[static_cast<size_t>(i)] =
          static_cast<double>(comp_sets[ci]);
      continue;
    }
    out.penalty[static_cast<size_t>(i)] =
        static_cast<double>(comp_sets[ci]) / static_cast<double>(lo);
  }

  if (materialize_sets) {
    // Cross product across components (small graphs only).
    std::vector<std::vector<graph::CommId>> sets{{}};
    for (size_t ci = 0; ci < components.size(); ++ci) {
      std::vector<std::vector<graph::CommId>> next;
      next.reserve(sets.size() * comp_mis[ci].size());
      for (const auto& prefix : sets)
        for (const auto& choice : comp_mis[ci]) {
          auto merged = prefix;
          merged.insert(merged.end(), choice.begin(), choice.end());
          next.push_back(std::move(merged));
          BWS_CHECK(next.size() <= params_.max_state_sets,
                    "too many state sets to materialize");
        }
      sets = std::move(next);
    }
    for (auto& set : sets) std::sort(set.begin(), set.end());
    std::sort(sets.begin(), sets.end());
    out.state_sets = std::move(sets);
  }

  return out;
}

namespace {

int find_root(std::span<int> parent, int i) {
  while (parent[static_cast<size_t>(i)] != i) {
    parent[static_cast<size_t>(i)] =
        parent[static_cast<size_t>(parent[static_cast<size_t>(i)])];
    i = parent[static_cast<size_t>(i)];
  }
  return i;
}

/// Union `i` into the set of the first communication recorded in `first`.
void join_first(std::span<int> parent, int& first, int i) {
  if (first < 0) {
    first = i;
    return;
  }
  const int a = find_root(parent, first);
  const int b = find_root(parent, i);
  if (a != b) parent[static_cast<size_t>(std::max(a, b))] = std::min(a, b);
}

}  // namespace

void MyrinetModel::penalties_into(const graph::CommGraph& graph,
                                  util::Arena& scratch,
                                  std::span<double> out) const {
  const size_t k = static_cast<size_t>(graph.size());
  BWS_CHECK(out.size() == k, "penalties_into output span size mismatch");
  std::fill(out.begin(), out.end(), 1.0);
  if (k < 2) return;
  util::Arena::Frame frame(scratch);
  const auto& comms = graph.comms();
  const NodeTable t = make_node_table(graph, scratch);
  const size_t m = t.num_nodes();

  // Conflict components. Every communication leaving (entering) a node
  // conflicts with every other one leaving (entering) it, so joining each
  // to the first one seen there builds the same partition as the dense
  // conflict graph.
  auto parent = scratch.make_span_uninit<int>(k);
  for (size_t i = 0; i < k; ++i) parent[i] = static_cast<int>(i);
  auto first_from = scratch.make_span_uninit<int>(m);
  std::fill(first_from.begin(), first_from.end(), -1);
  auto first_to = scratch.make_span_uninit<int>(m);
  std::fill(first_to.begin(), first_to.end(), -1);
  for (size_t i = 0; i < k; ++i) {
    if (t.src[i] < 0) continue;
    const int id = static_cast<int>(i);
    join_first(parent, first_from[static_cast<size_t>(t.src[i])], id);
    join_first(parent, first_to[static_cast<size_t>(t.dst[i])], id);
  }

  // Group by root; members are appended in ascending comm id, which is the
  // local vertex order analyze() enumerates in (so a capped enumeration
  // stops on the same sets).
  auto size_of = scratch.make_span<int>(k);
  for (size_t i = 0; i < k; ++i) {
    parent[i] = find_root(parent, static_cast<int>(i));
    ++size_of[static_cast<size_t>(parent[i])];
  }
  auto offset = scratch.make_span_uninit<int>(k + 1);
  offset[0] = 0;
  for (size_t r = 0; r < k; ++r) offset[r + 1] = offset[r] + size_of[r];
  auto members = scratch.make_span_uninit<graph::CommId>(k);
  {
    auto cursor = scratch.make_span_uninit<int>(k);
    std::copy(offset.begin(), offset.begin() + static_cast<long>(k),
              cursor.begin());
    for (size_t i = 0; i < k; ++i)
      members[static_cast<size_t>(cursor[static_cast<size_t>(parent[i])]++)] =
          static_cast<graph::CommId>(i);
  }

  // Per component: complement rows, then count the state sets and each
  // member's emission coefficient without storing the sets.
  struct Count final : MisVisitor {
    std::span<const graph::CommId> comp;
    std::span<uint64_t> emission;  // per comm id
    uint64_t sets = 0;
    void visit(std::span<const int> set) override {
      ++sets;
      for (const int v : set)
        ++emission[static_cast<size_t>(comp[static_cast<size_t>(v)])];
    }
  } count;
  count.emission = scratch.make_span<uint64_t>(k);
  auto comp_sets = scratch.make_span<uint64_t>(k);  // per root
  for (size_t r = 0; r < k; ++r) {
    if (size_of[r] < 2) continue;  // a singleton's penalty is 1
    const auto comp = std::span<const graph::CommId>(
        members.data() + offset[r], static_cast<size_t>(size_of[r]));
    const int n = static_cast<int>(comp.size());
    util::Arena::Frame comp_frame(scratch);
    auto rows = CompatibilityRows::make(n, scratch);
    for (int a = 0; a < n; ++a) {
      const auto& ca = comms[static_cast<size_t>(comp[static_cast<size_t>(a)])];
      for (int b = a + 1; b < n; ++b) {
        const auto& cb =
            comms[static_cast<size_t>(comp[static_cast<size_t>(b)])];
        if (ca.src != cb.src && ca.dst != cb.dst) rows.set_compatible(a, b);
      }
    }
    // A capped enumeration counts the sets it reached, as analyze() does.
    count.comp = comp;
    count.sets = 0;
    for_each_maximal_independent_set(rows, params_.max_state_sets, scratch,
                                     count);
    comp_sets[r] = count.sets;
  }

  // Per-source-node minimum of the emission coefficient (fig 6 "Minimum"
  // row); a node's outgoing communications all share one component.
  auto min_emission = scratch.make_span_uninit<uint64_t>(m);
  std::fill(min_emission.begin(), min_emission.end(),
            std::numeric_limits<uint64_t>::max());
  for (size_t i = 0; i < k; ++i) {
    if (t.src[i] < 0) continue;
    uint64_t& lo = min_emission[static_cast<size_t>(t.src[i])];
    lo = std::min(lo, count.emission[i]);
  }

  // analyze()'s penalty expression: #sets / clamped emission.
  for (size_t i = 0; i < k; ++i) {
    const auto r = static_cast<size_t>(parent[i]);
    if (size_of[r] < 2) continue;
    const uint64_t lo = min_emission[static_cast<size_t>(t.src[i])];
    out[i] = lo == 0 ? static_cast<double>(comp_sets[r])
                     : static_cast<double>(comp_sets[r]) /
                           static_cast<double>(lo);
  }
}

}  // namespace bwshare::models
