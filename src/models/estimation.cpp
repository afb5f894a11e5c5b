#include "models/estimation.hpp"

#include "graph/schemes.hpp"
#include "stats/descriptive.hpp"
#include "util/error.hpp"

namespace bwshare::models {

double measure_reference_time(const MeasureFn& measure, double bytes) {
  const auto g = graph::schemes::outgoing_fan(1, bytes);
  const auto times = measure(g);
  BWS_CHECK(times.size() == 1, "reference measurement must return one time");
  BWS_CHECK(times[0] > 0.0, "reference time must be positive");
  return times[0];
}

BetaEstimate estimate_beta(const MeasureFn& measure, double bytes,
                           int max_fan) {
  BWS_CHECK(max_fan >= 2, "need at least degree-2 conflicts to estimate beta");
  const double t_ref = measure_reference_time(measure, bytes);

  BetaEstimate est;
  stats::Accumulator acc;
  for (int fan = 2; fan <= max_fan; ++fan) {
    const auto g = graph::schemes::outgoing_fan(fan, bytes);
    const auto times = measure(g);
    BWS_CHECK(static_cast<int>(times.size()) == fan,
              "measurement size mismatch");
    // Average penalty of the fan, divided by the number of communications
    // ("we divide the values that we get by the number of communication").
    stats::Accumulator fan_acc;
    for (double t : times) fan_acc.add(t / t_ref);
    const double beta_k = fan_acc.mean() / fan;
    est.per_degree.push_back(beta_k);
    acc.add(beta_k);
  }
  est.beta = acc.mean();
  return est;
}

GammaEstimate estimate_gammas(const MeasureFn& measure, double beta,
                              double bytes) {
  BWS_CHECK(beta > 0.0, "beta must be positive");
  GammaEstimate est;
  est.t_ref = measure_reference_time(measure, bytes);

  const auto g = graph::schemes::fig4_scheme(bytes);
  const auto times = measure(g);
  BWS_CHECK(times.size() == 6, "fig-4 scheme has six communications");
  const auto a = g.find("a");
  const auto f = g.find("f");
  BWS_ASSERT(a && f, "fig-4 scheme must define comms a and f");
  est.t_a = times[static_cast<size_t>(*a)];
  est.t_f = times[static_cast<size_t>(*f)];

  // a is the non-strongly-slow outgoing comm of a degree-3 conflict;
  // f the non-strongly-slow incoming comm of a degree-3 conflict.
  est.gamma_o = 1.0 - est.t_a / (3.0 * beta * est.t_ref);
  est.gamma_i = 1.0 - est.t_f / (3.0 * beta * est.t_ref);
  return est;
}

}  // namespace bwshare::models
