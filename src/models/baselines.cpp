#include "models/baselines.hpp"

#include <algorithm>

#include "models/node_table.hpp"
#include "util/error.hpp"

namespace bwshare::models {

void LinearLogGPModel::penalties_into(const graph::CommGraph& graph,
                                      util::Arena& /*scratch*/,
                                      std::span<double> out) const {
  BWS_CHECK(out.size() == static_cast<size_t>(graph.size()),
            "penalties_into output span size mismatch");
  std::fill(out.begin(), out.end(), 1.0);
}

void KimLeeModel::penalties_into(const graph::CommGraph& graph,
                                 util::Arena& scratch,
                                 std::span<double> out) const {
  const size_t k = static_cast<size_t>(graph.size());
  BWS_CHECK(out.size() == k, "penalties_into output span size mismatch");
  util::Arena::Frame frame(scratch);
  const NodeTable t = make_node_table(graph, scratch);
  for (size_t i = 0; i < k; ++i) {
    out[i] = 1.0;
    if (t.src[i] < 0) continue;
    const int multiplicity =
        std::max(t.out_degree[static_cast<size_t>(t.src[i])],
                 t.in_degree[static_cast<size_t>(t.dst[i])]);
    out[i] = std::max(1, multiplicity);
  }
}

}  // namespace bwshare::models
