#include "sim/rate_model.hpp"

#include "util/error.hpp"

namespace bwshare::sim {

ModelRateProvider::ModelRateProvider(
    std::shared_ptr<const models::PenaltyModel> model,
    topo::NetworkCalibration cal)
    : model_(std::move(model)), cal_(cal) {
  BWS_CHECK(model_ != nullptr, "model must not be null");
  BWS_CHECK(cal_.link_bandwidth > 0.0, "calibration must be set");
}

std::vector<double> ModelRateProvider::rates(
    const graph::CommGraph& active) const {
  std::vector<double> out(static_cast<size_t>(active.size()));
  rates_into(active, util::Arena::thread_local_instance(), out);
  return out;
}

void ModelRateProvider::rates_into(const graph::CommGraph& active,
                                   util::Arena& scratch,
                                   std::span<double> out) const {
  model_->penalties_into(active, scratch, out);
  for (graph::CommId i = 0; i < active.size(); ++i) {
    const double ref = active.is_intra_node(i) ? cal_.shm_bandwidth
                                               : cal_.reference_bandwidth();
    out[static_cast<size_t>(i)] = ref / out[static_cast<size_t>(i)];
  }
}

}  // namespace bwshare::sim
