// InfiniBand (InfiniHost III) penalty model.
//
// Reproduces: Fig. 2 column 3 (measured InfiniBand penalties, in particular
// scheme 5's 3.66 / 2.035 split). Reference entry: docs/MODELS.md
// §"InfiniBand".
//
// The paper's conclusion lists this model as work in progress; the
// formulation below is our extension of §V to credit-based flow control, the
// one the measured behaviour suggests. Credit-based flow control yields
// near-fair sharing per direction with a per-stream efficiency β_ib
// (1.725/2 = 0.86, 2.61/3 = 0.87), but the host adapter's DMA path is
// shared between directions: when a node both sends and receives,
// penalties follow a weighted-bus rule that exactly matches fig 2 scheme 5
// (outgoing 3.66 = β·(Δo + w·Δi)/f_duplex with w = 1.8, f_duplex = 1.14;
// incoming 2.035 = 3.66/1.8).
#pragma once

#include "models/penalty_model.hpp"

namespace bwshare::models {

struct InfinibandParams {
  double beta = 0.87;          // per-stream sharing efficiency
  double rx_weight = 1.8;      // receive flows get this weight on the bus
  double duplex_factor = 1.14; // combined TX+RX capacity / link capacity
};

class InfinibandModel final : public PenaltyModel {
 public:
  explicit InfinibandModel(InfinibandParams params = {});

  [[nodiscard]] std::string name() const override;
  /// O(k log k): the four degrees come from one node table.
  void penalties_into(const graph::CommGraph& graph, util::Arena& scratch,
                      std::span<double> out) const override;

  [[nodiscard]] const InfinibandParams& params() const { return params_; }

 private:
  InfinibandParams params_;
};

}  // namespace bwshare::models
