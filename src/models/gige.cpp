#include "models/gige.hpp"

#include <algorithm>

#include "graph/conflict.hpp"
#include "models/node_table.hpp"
#include "util/error.hpp"

namespace bwshare::models {

GigabitEthernetModel::GigabitEthernetModel(GigeParams params)
    : params_(params) {
  BWS_CHECK(params_.beta > 0.0, "beta must be positive");
  BWS_CHECK(params_.gamma_o >= 0.0 && params_.gamma_o < 1.0,
            "gamma_o must be in [0,1)");
  BWS_CHECK(params_.gamma_i >= 0.0 && params_.gamma_i < 1.0,
            "gamma_i must be in [0,1)");
}

std::string GigabitEthernetModel::name() const { return "gige"; }

GigabitEthernetModel::Breakdown GigabitEthernetModel::breakdown(
    const graph::CommGraph& graph, graph::CommId id) const {
  Breakdown b;
  if (graph.is_intra_node(id)) return b;

  b.delta_o = graph.delta_o(id);
  b.delta_i = graph.delta_i(id);
  const auto slow = graph::strongly_slow_sets(graph, id);
  b.card_cm_o = static_cast<int>(slow.cm_o.size());
  b.card_cm_i = static_cast<int>(slow.cm_i.size());
  b.in_cm_o = slow.in_cm_o;
  b.in_cm_i = slow.in_cm_i;

  const double beta = params_.beta;
  if (b.delta_o <= 1) {
    b.p_out = 1.0;
  } else if (b.in_cm_o) {
    b.p_out = b.delta_o * beta *
              (1.0 + params_.gamma_o * (b.delta_o - b.card_cm_o));
  } else {
    b.p_out = b.delta_o * beta * (1.0 - params_.gamma_o / b.card_cm_o);
  }

  if (b.delta_i <= 1) {
    b.p_in = 1.0;
  } else if (b.in_cm_i) {
    b.p_in = b.delta_i * beta *
             (1.0 + params_.gamma_i * (b.delta_i - b.card_cm_i));
  } else {
    b.p_in = b.delta_i * beta * (1.0 - params_.gamma_i / b.card_cm_i);
  }

  // The paper's penalty is relative to an unconflicted transfer, so it can
  // never drop below 1 (a conflict cannot speed a communication up).
  b.penalty = std::max(1.0, std::max(b.p_out, b.p_in));
  return b;
}

void GigabitEthernetModel::penalties_into(const graph::CommGraph& graph,
                                          util::Arena& scratch,
                                          std::span<double> out) const {
  const size_t k = static_cast<size_t>(graph.size());
  BWS_CHECK(out.size() == k, "penalties_into output span size mismatch");
  util::Arena::Frame frame(scratch);
  const NodeTable t = make_node_table(graph, scratch);
  const size_t m = t.num_nodes();

  // Definition 1 per node: at a source, the largest in-degree among its
  // communications' destinations and how many communications reach it
  // (|Cm_o|); at a destination, the same over its sources' out-degrees.
  auto max_di = scratch.make_span<int>(m);
  auto card_cm_o = scratch.make_span<int>(m);
  auto max_do = scratch.make_span<int>(m);
  auto card_cm_i = scratch.make_span<int>(m);
  const auto track = [](int& best, int& count, int value) {
    if (value > best) {
      best = value;
      count = 1;
    } else if (value == best) {
      ++count;
    }
  };
  for (size_t i = 0; i < k; ++i) {
    if (t.src[i] < 0) continue;
    const auto s = static_cast<size_t>(t.src[i]);
    const auto d = static_cast<size_t>(t.dst[i]);
    track(max_di[s], card_cm_o[s], t.in_degree[d]);
    track(max_do[d], card_cm_i[d], t.out_degree[s]);
  }

  // breakdown()'s expressions, in its order.
  const double beta = params_.beta;
  for (size_t i = 0; i < k; ++i) {
    if (t.src[i] < 0) {
      out[i] = 1.0;
      continue;
    }
    const auto s = static_cast<size_t>(t.src[i]);
    const auto d = static_cast<size_t>(t.dst[i]);
    const int delta_o = t.out_degree[s];
    const int delta_i = t.in_degree[d];

    double p_out;
    if (delta_o <= 1) {
      p_out = 1.0;
    } else if (delta_i == max_di[s]) {
      p_out = delta_o * beta *
              (1.0 + params_.gamma_o * (delta_o - card_cm_o[s]));
    } else {
      p_out = delta_o * beta * (1.0 - params_.gamma_o / card_cm_o[s]);
    }

    double p_in;
    if (delta_i <= 1) {
      p_in = 1.0;
    } else if (delta_o == max_do[d]) {
      p_in = delta_i * beta *
             (1.0 + params_.gamma_i * (delta_i - card_cm_i[d]));
    } else {
      p_in = delta_i * beta * (1.0 - params_.gamma_i / card_cm_i[d]);
    }

    out[i] = std::max(1.0, std::max(p_out, p_in));
  }
}

}  // namespace bwshare::models
