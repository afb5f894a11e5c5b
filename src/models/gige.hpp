// Gigabit Ethernet congestion model (paper §V-A).
//
// Reproduces: Fig. 2 column 1 (measured GigE penalties 1.5 / 2.25), Fig. 4
// (γo/γi parameter estimation schemes) and feeds the Fig. 8 HPL-on-GigE
// prediction. Reference entry: docs/MODELS.md §"Gigabit Ethernet".
//
// A quantitative model with three card-specific parameters:
//   β   — per-stream sharing efficiency (fig 2: two streams cost 1.5 = 2β,
//         three cost 2.25 = 3β with β = 0.75)
//   γo  — spread between strongly-slow and other *outgoing* communications
//   γi  — same for *incoming* communications
//
// For a communication i with outgoing degree Δo = Δo(src(i)) and incoming
// degree Δi = Δi(dst(i)), and strongly-slow sets Cm_o/Cm_i (Definition 1,
// graph/conflict.hpp):
//
//   p_o = 1                                         if Δo = 1
//       = Δo·β·(1 + γo·(Δo − |Cm_o|))               if i ∈ Cm_o
//       = Δo·β·(1 − γo/|Cm_o|)                      otherwise
//   p_i analogous with Δi, γi, Cm_i
//   p   = max(p_o, p_i), clamped to >= 1.
#pragma once

#include "models/penalty_model.hpp"

namespace bwshare::models {

struct GigeParams {
  double beta = 0.75;    // paper §V-A
  double gamma_o = 0.115;  // paper fig 4
  double gamma_i = 0.036;  // paper fig 4
};

class GigabitEthernetModel final : public PenaltyModel {
 public:
  explicit GigabitEthernetModel(GigeParams params = {});

  [[nodiscard]] std::string name() const override;

  /// O(k log k): one node table carries Δo, Δi and, per node, the largest
  /// partner degree and how many communications reach it, which gives
  /// |Cm_o|, |Cm_i| and membership in O(1) per communication.
  void penalties_into(const graph::CommGraph& graph, util::Arena& scratch,
                      std::span<double> out) const override;

  [[nodiscard]] const GigeParams& params() const { return params_; }

  /// Per-communication breakdown, exposed for tests and the fig-4 bench.
  /// An independent O(k) evaluation of one communication through
  /// graph::strongly_slow_sets: the reference penalties() is pinned to.
  struct Breakdown {
    double p_out = 1.0;
    double p_in = 1.0;
    double penalty = 1.0;
    int delta_o = 0;
    int delta_i = 0;
    int card_cm_o = 0;
    int card_cm_i = 0;
    bool in_cm_o = false;
    bool in_cm_i = false;
  };
  [[nodiscard]] Breakdown breakdown(const graph::CommGraph& graph,
                                    graph::CommId id) const;

 private:
  GigeParams params_;
};

}  // namespace bwshare::models
