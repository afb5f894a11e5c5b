// The event-core under EngineConfig::verify on churning traces. A verify
// replay re-derives every event choice (next wake-up, next completion,
// completing transfer, wake-sweep order) by linear scans over every task and
// transfer, re-checks every finish-time queue key, and re-solves the whole
// active set after every flush; it throws on the first divergence and must
// otherwise be bit-identical to the default replay.
//
// The staggered fuzz here deliberately forces mid-flight re-predictions in
// both directions: hotspot fan-ins make every new transfer shrink its
// component's rates (finish times grow, increase-key) and every completion
// grows them again (finish times shrink, decrease-key). Same-time barrier
// releases batch many disjoint components into one flush. The fluid
// provider and the InfiniBand model both run these traces.
#include <cstdint>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

class VerifyChurnFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VerifyChurnFuzz, VerifyReplayIsBitIdenticalOnChurningTraces) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 333331 + 7);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()), tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster = topo::ClusterSpec::uniform(
      "queuefuzz", (tasks + 1) / 2, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  expect_verify_matches_default(trace, cluster, placement, provider);
}

TEST_P(VerifyChurnFuzz, InfinibandModelVerifiesOnChurningTraces) {
  // The InfiniBand model on two tasks per node: its penalties re-predict at
  // every fan-in join and completion, while intra-node copies run beside
  // the network flows of the same node.
  Rng rng(static_cast<uint64_t>(GetParam()) * 444443 + 19);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace =
      churn_trace(static_cast<uint64_t>(GetParam()) + 100, tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cal = topo::infiniband_calibration();
  const auto cluster =
      topo::ClusterSpec::uniform("queueib", (tasks + 1) / 2, 2, cal);
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const ModelRateProvider provider(models::make_model("infiniband"), cal);
  expect_verify_matches_default(trace, cluster, placement, provider);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyChurnFuzz, ::testing::Range(0, 10));

TEST(ReplayDeterminism, RepeatedRunsAreIdentical) {
  const auto trace = churn_trace(42, 7);
  const auto cluster = topo::ClusterSpec::uniform(
      "queuedet", 4, 2, topo::myrinet2000_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, 7);
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto a = run_simulation(trace, cluster, placement, provider);
  const auto b = run_simulation(trace, cluster, placement, provider);
  expect_bit_identical(a, b);
}

}  // namespace
}  // namespace bwshare::sim
