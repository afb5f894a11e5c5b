// Model parameter estimation (paper §V-A).
//
// The GigE parameters are estimated from measurements:
//   β  — run simple outgoing conflicts C<-X-> of increasing degree, divide
//        each measured penalty by the degree, average;
//   γo — from the fig-4 scheme: γo = 1 − t_a / (3·β·t_ref);
//   γi — likewise:              γi = 1 − t_f / (3·β·t_ref).
// where t_ref is the time of the same message without concurrency.
//
// Measurements are abstracted as a callback so the estimators run equally
// against the flowsim substrate, the packet-level simulators, or (on a real
// cluster) recorded data.
#pragma once

#include <functional>
#include <vector>

#include "graph/comm_graph.hpp"

namespace bwshare::models {

/// Returns per-communication completion times for a scheme run in isolation
/// (all communications start together), in graph.comms() order.
using MeasureFn =
    std::function<std::vector<double>(const graph::CommGraph&)>;

struct BetaEstimate {
  double beta = 0.0;
  /// Penalty/degree samples per fan degree (2..max_fan), for reporting.
  std::vector<double> per_degree;
};

/// Estimate β from outgoing fans of degree 2..max_fan with `bytes` messages.
[[nodiscard]] BetaEstimate estimate_beta(const MeasureFn& measure,
                                         double bytes = 20e6,
                                         int max_fan = 4);

struct GammaEstimate {
  double gamma_o = 0.0;
  double gamma_i = 0.0;
  double t_ref = 0.0;  // unconflicted reference time at the probe size
  double t_a = 0.0;    // fig-4 communication a
  double t_f = 0.0;    // fig-4 communication f
};

/// Estimate γo and γi from the fig-4 scheme with `bytes` messages.
[[nodiscard]] GammaEstimate estimate_gammas(const MeasureFn& measure,
                                            double beta, double bytes = 4e6);

/// Unconflicted reference time for a `bytes` message (paper §IV-B's
/// "referential time": one MPI_Send node 0 -> node 1, nothing else).
[[nodiscard]] double measure_reference_time(const MeasureFn& measure,
                                            double bytes);

}  // namespace bwshare::models
