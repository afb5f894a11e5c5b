// Baseline communication models the paper compares against conceptually
// (§II): the LogP/LogGP family, which ignores sharing entirely, and the
// Kim-Lee Myrinet model [7], which multiplies a piecewise-linear cost by the
// maximum number of communications in the sharing conflict.
// Reference entries: docs/MODELS.md §"Linear LogGP" / §"Kim–Lee".
#pragma once

#include "models/penalty_model.hpp"

namespace bwshare::models {

/// LogGP-style linear model: a message's time grows linearly with its size
/// and ignores sharing. As a penalty model it always answers 1 — the
/// strawman that motivates the paper (§II: "these linear models poorly
/// predict communication delays").
class LinearLogGPModel final : public PenaltyModel {
 public:
  [[nodiscard]] std::string name() const override { return "loggp"; }
  void penalties_into(const graph::CommGraph& graph, util::Arena& scratch,
                      std::span<double> out) const override;
};

/// Kim & Lee [7]: delay = (conflict multiplicity) x linear cost, where the
/// multiplicity is the maximum number of communications sharing a network
/// path with this one. On a fat tree the shared resources are the two host
/// links, so the multiplicity is max(Δo(src), Δi(dst)).
class KimLeeModel final : public PenaltyModel {
 public:
  [[nodiscard]] std::string name() const override { return "kimlee"; }
  /// O(k log k): Δo and Δi come from one node table.
  void penalties_into(const graph::CommGraph& graph, util::Arena& scratch,
                      std::span<double> out) const override;
};

}  // namespace bwshare::models
