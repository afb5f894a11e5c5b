#include "models/penalty_model.hpp"

namespace bwshare::models {

std::vector<double> PenaltyModel::penalties(
    const graph::CommGraph& graph) const {
  std::vector<double> out(static_cast<size_t>(graph.size()));
  penalties_into(graph, util::Arena::thread_local_instance(), out);
  return out;
}

std::vector<double> PenaltyModel::predict_times(
    const graph::CommGraph& graph, const topo::NetworkCalibration& cal) const {
  const auto ps = penalties(graph);
  std::vector<double> times(ps.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    const auto& c = graph.comm(static_cast<graph::CommId>(i));
    const double bandwidth = graph.is_intra_node(static_cast<graph::CommId>(i))
                                 ? cal.shm_bandwidth
                                 : cal.reference_bandwidth();
    times[i] = cal.latency + ps[i] * c.bytes / bandwidth;
  }
  return times;
}

}  // namespace bwshare::models
