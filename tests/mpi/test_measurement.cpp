// The §IV-B measurement software must reproduce the substrate's fig-2
// penalties end-to-end (through real simulated MPI jobs with barriers).
#include "mpi/measurement.hpp"

#include <gtest/gtest.h>

#include "graph/schemes.hpp"
#include "models/gige.hpp"
#include "sim/rate_model.hpp"
#include "util/error.hpp"

namespace bwshare::mpi {
namespace {

topo::ClusterSpec gige_cluster() {
  return topo::ClusterSpec::uniform("gige", 8, 2,
                                    topo::gigabit_ethernet_calibration());
}

TEST(Measurement, ReferenceTimeMatchesCalibration) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto m = measure_scheme_penalties(graph::schemes::outgoing_fan(1),
                                          cluster, provider);
  EXPECT_NEAR(m.t_ref, cluster.network().reference_time(20e6), 1e-3);
  EXPECT_NEAR(m.penalties[0], 1.0, 0.01);
}

TEST(Measurement, Fig2FanPenaltiesOnSubstrate) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto m2 = measure_scheme_penalties(graph::schemes::fig2_scheme(2),
                                           cluster, provider);
  for (double p : m2.penalties) EXPECT_NEAR(p, 1.5, 0.03);
  const auto m3 = measure_scheme_penalties(graph::schemes::fig2_scheme(3),
                                           cluster, provider);
  for (double p : m3.penalties) EXPECT_NEAR(p, 2.25, 0.05);
}

TEST(Measurement, ModelProviderReproducesModelPenalties) {
  const auto cluster = gige_cluster();
  const auto model = std::make_shared<models::GigabitEthernetModel>();
  const sim::ModelRateProvider provider(model, cluster.network());
  const auto m = measure_scheme_penalties(graph::schemes::outgoing_fan(3),
                                          cluster, provider);
  for (double p : m.penalties) EXPECT_NEAR(p, 2.25, 0.02);
}

TEST(Measurement, MixedSizesGetSizeMatchedReferences) {
  graph::CommGraph scheme;
  scheme.add("big", 0, 1, 20e6);
  scheme.add("small", 2, 3, 4e6);  // unconflicted
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto m = measure_scheme_penalties(scheme, cluster, provider);
  // Both comms are unconflicted: penalties ~1 despite different sizes.
  EXPECT_NEAR(m.penalties[0], 1.0, 0.02);
  EXPECT_NEAR(m.penalties[1], 1.0, 0.02);
}

TEST(Measurement, Validation) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  EXPECT_THROW(
      measure_scheme_penalties(graph::CommGraph{}, cluster, provider), Error);
  // Scheme referencing node 20 on an 8-node cluster.
  graph::CommGraph big;
  big.add("x", 0, 20, 1e6);
  EXPECT_THROW(measure_scheme_penalties(big, cluster, provider), Error);
}

}  // namespace
}  // namespace bwshare::mpi
