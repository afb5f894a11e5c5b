// The §IV-B measurement software must reproduce the substrate's fig-2
// penalties end-to-end (through real simulated MPI jobs with barriers).
// measure_times returns the times T_i; the tests form P_i = T_i / T_ref
// themselves, with T_ref measured as a one-comm scheme of comm i's size.
#include "mpi/measurement.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

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

/// T of one `bytes` message node 0 -> node 1 with nothing else.
double reference_time(double bytes, const topo::ClusterSpec& cluster,
                      const flowsim::RateProvider& provider) {
  graph::CommGraph single;
  single.add(0, 1, bytes);
  return measure_times(single, cluster, provider)[0];
}

/// P_i = T_i / T_ref(bytes_i).
std::vector<double> penalties(const graph::CommGraph& scheme,
                              const topo::ClusterSpec& cluster,
                              const flowsim::RateProvider& provider) {
  auto out = measure_times(scheme, cluster, provider);
  for (graph::CommId i = 0; i < scheme.size(); ++i)
    out[static_cast<size_t>(i)] /=
        reference_time(scheme.comm(i).bytes, cluster, provider);
  return out;
}

/// Forwards to another provider and counts the rate solves asked of it.
class CountingProvider final : public flowsim::RateProvider {
 public:
  explicit CountingProvider(const flowsim::RateProvider& inner)
      : inner_(inner) {}

  [[nodiscard]] std::vector<double> rates(
      const graph::CommGraph& active) const override {
    ++calls_;
    return inner_.rates(active);
  }
  void rates_into(const graph::CommGraph& active, util::Arena& scratch,
                  std::span<double> out) const override {
    ++calls_;
    inner_.rates_into(active, scratch, out);
  }

  [[nodiscard]] int calls() const { return calls_; }

 private:
  const flowsim::RateProvider& inner_;
  mutable int calls_ = 0;
};

TEST(Measurement, ReferenceTimeMatchesCalibration) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto t = measure_times(graph::schemes::outgoing_fan(1), cluster,
                               provider);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_NEAR(t[0], cluster.network().reference_time(20e6), 1e-3);
}

TEST(Measurement, Fig2FanPenaltiesOnSubstrate) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  for (double p : penalties(graph::schemes::fig2_scheme(2), cluster, provider))
    EXPECT_NEAR(p, 1.5, 0.03);
  for (double p : penalties(graph::schemes::fig2_scheme(3), cluster, provider))
    EXPECT_NEAR(p, 2.25, 0.05);
}

TEST(Measurement, ModelProviderReproducesModelPenalties) {
  const auto cluster = gige_cluster();
  const auto model = std::make_shared<models::GigabitEthernetModel>();
  const sim::ModelRateProvider provider(model, cluster.network());
  for (double p : penalties(graph::schemes::outgoing_fan(3), cluster, provider))
    EXPECT_NEAR(p, 2.25, 0.02);
}

TEST(Measurement, MixedSizesGetSizeMatchedReferences) {
  graph::CommGraph scheme;
  scheme.add("big", 0, 1, 20e6);
  scheme.add("small", 2, 3, 4e6);  // unconflicted
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto p = penalties(scheme, cluster, provider);
  // Both comms are unconflicted: penalties ~1 despite different sizes.
  EXPECT_NEAR(p[0], 1.0, 0.02);
  EXPECT_NEAR(p[1], 1.0, 0.02);
}

TEST(Measurement, ReplaysTheJobOnceWhateverTheMessageSize) {
  // 4 MB and 20 MB are both rendezvous sends, so one replay of a one-comm
  // job asks the provider for the same solves at either size; any replay
  // besides the job's, such as a reference probe, makes the counts differ.
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider fluid(cluster.network());
  const auto calls_at = [&](double bytes) {
    graph::CommGraph scheme;
    scheme.add(0, 1, bytes);
    const CountingProvider counting(fluid);
    (void)measure_times(scheme, cluster, counting);
    return counting.calls();
  };
  const int at_4mb = calls_at(4e6);
  EXPECT_GT(at_4mb, 0);
  EXPECT_EQ(at_4mb, calls_at(20e6));
}

TEST(Measurement, Validation) {
  const auto cluster = gige_cluster();
  const flowsim::FluidRateProvider provider(cluster.network());
  EXPECT_THROW((void)measure_times(graph::CommGraph{}, cluster, provider),
               Error);
  // Scheme referencing node 20 on an 8-node cluster.
  graph::CommGraph big;
  big.add("x", 0, 20, 1e6);
  EXPECT_THROW((void)measure_times(big, cluster, provider), Error);
}

}  // namespace
}  // namespace bwshare::mpi
