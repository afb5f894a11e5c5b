#include "models/penalty_model.hpp"

namespace bwshare::models {

std::vector<double> PenaltyModel::penalties(
    const graph::CommGraph& graph) const {
  std::vector<double> out(static_cast<size_t>(graph.size()));
  penalties_into(graph, util::Arena::thread_local_instance(), out);
  return out;
}

}  // namespace bwshare::models
