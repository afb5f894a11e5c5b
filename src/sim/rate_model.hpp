// RateProvider adapter for the paper's penalty models: whenever the set of
// in-flight communications changes, the model is re-evaluated on the
// instantaneous communication graph and each transfer drains at
// reference_bandwidth / penalty. This is how the §VI-A simulator applies the
// §V models to application traces.
#pragma once

#include <memory>

#include "flowsim/fluid_network.hpp"
#include "models/penalty_model.hpp"
#include "topo/network.hpp"

namespace bwshare::sim {

/// Const-safe and reentrant like every RateProvider (see the base class
/// contract): the penalty model is shared immutable state and all solve
/// scratch lives in the caller's arena. The engine evaluates the model on
/// one endpoint-closed component at a time, which is exact because every
/// paper model is local to such a set — penalties depend on node degrees,
/// strongly-slow sets and conflict-graph components, all fully determined
/// inside it (see docs/PERFORMANCE.md).
class ModelRateProvider final : public flowsim::RateProvider {
 public:
  ModelRateProvider(std::shared_ptr<const models::PenaltyModel> model,
                    topo::NetworkCalibration cal);

  /// Wrapper over rates_into() on the calling thread's arena.
  using RateProvider::rates;
  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override;

  /// The model's penalties_into() writes the penalties into `out`, then
  /// each is replaced in place by reference_bandwidth / penalty (the
  /// shared-memory bandwidth for intra-node copies). Allocation-free on a
  /// warmed arena.
  void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                  std::span<double> out) const override;

  [[nodiscard]] const topo::NetworkCalibration& calibration() const {
    return cal_;
  }
  [[nodiscard]] const models::PenaltyModel& model() const { return *model_; }

 private:
  std::shared_ptr<const models::PenaltyModel> model_;
  topo::NetworkCalibration cal_;
};

}  // namespace bwshare::sim
