// Closed-loop tests of the parameter estimators (§V-A): measuring a
// synthetic substrate that *is* the GigE model must recover its parameters.
#include "models/estimation.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

#include "models/gige.hpp"
#include "topo/network.hpp"

namespace bwshare::models {
namespace {

/// A MeasureFn backed by a GigE model with known parameters: T = p · bytes
/// / reference bandwidth, with no latency to keep T strictly proportional
/// to the penalty.
MeasureFn model_substrate(const GigeParams& params) {
  return [params](const graph::CommGraph& g) {
    const GigabitEthernetModel model(params);
    const auto cal = topo::gigabit_ethernet_calibration();
    auto times = model.penalties(g);
    for (graph::CommId i = 0; i < g.size(); ++i)
      times[static_cast<size_t>(i)] *=
          g.comm(i).bytes / cal.reference_bandwidth();
    return times;
  };
}

TEST(Estimation, RecoversBetaExactly) {
  GigeParams truth;
  truth.beta = 0.8;
  const auto est = estimate_beta(model_substrate(truth));
  EXPECT_NEAR(est.beta, truth.beta, 1e-9);
  // Every fan degree individually agrees.
  for (double b : est.per_degree) EXPECT_NEAR(b, truth.beta, 1e-9);
}

TEST(Estimation, RecoversGammasExactly) {
  GigeParams truth;  // defaults: β=0.75, γo=0.115, γi=0.036
  const auto gamma = estimate_gammas(model_substrate(truth), truth.beta);
  EXPECT_NEAR(gamma.gamma_o, truth.gamma_o, 1e-9);
  EXPECT_NEAR(gamma.gamma_i, truth.gamma_i, 1e-9);
}

TEST(Estimation, FullCalibrationRoundTrips) {
  GigeParams truth;
  truth.beta = 0.7;
  truth.gamma_o = 0.2;
  truth.gamma_i = 0.05;
  const auto measure = model_substrate(truth);
  const auto beta = estimate_beta(measure);
  const auto gammas = estimate_gammas(measure, beta.beta);
  EXPECT_NEAR(beta.beta, truth.beta, 1e-9);
  EXPECT_NEAR(gammas.gamma_o, truth.gamma_o, 1e-9);
  EXPECT_NEAR(gammas.gamma_i, truth.gamma_i, 1e-9);
}

TEST(Estimation, ReferenceTimeIsSingleCommTime) {
  GigeParams truth;
  const auto measure = model_substrate(truth);
  const double t_ref = measure_reference_time(measure, 20e6);
  const auto cal = topo::gigabit_ethernet_calibration();
  EXPECT_NEAR(t_ref, 20e6 / cal.reference_bandwidth(), 1e-9);
}

TEST(Estimation, GammasClampedToValidDomain) {
  // A perfectly fair substrate (γ = 0 exactly) yields γ at the edge of the
  // model's domain, not below it.
  GigeParams truth;
  truth.gamma_o = 0.0;
  truth.gamma_i = 0.0;
  const auto measure = model_substrate(truth);
  const auto gammas = estimate_gammas(measure, estimate_beta(measure).beta);
  EXPECT_GE(gammas.gamma_o, 0.0);
  EXPECT_GE(gammas.gamma_i, 0.0);
  EXPECT_NEAR(gammas.gamma_o, 0.0, 1e-9);
  EXPECT_NEAR(gammas.gamma_i, 0.0, 1e-9);
}

TEST(Estimation, RequiresAtLeastDegreeTwo) {
  GigeParams truth;
  EXPECT_THROW(estimate_beta(model_substrate(truth), 20e6, 1), Error);
}

}  // namespace
}  // namespace bwshare::models
