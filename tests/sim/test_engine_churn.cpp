// Fault-injection suite for dynamic-cluster scenarios (sim/scenario.hpp):
// node join/leave/fail churn and background cross-traffic scripted onto a
// replay. The scenario machinery must not disturb the engine's oracle
// contract — under a scripted trace, an EngineConfig::verify replay (which
// re-solves the whole active set after every flush and re-derives every
// event choice by linear scan) finishes without throwing and is
// bit-identical to the default replay. Fuzzed over the shared churn
// workload and over every generator family under the fluid, gige-model and
// myrinet-model providers, plus targeted semantic tests for the
// fail/leave/join and background-admission rules.
#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {
namespace {

// --- scripted scenario fuzz ------------------------------------------------

class ChurnScenarioFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ChurnScenarioFuzz, VerifyReplayIsBitIdenticalUnderChurn) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 700001 + 29);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()), tasks);
  ASSERT_NO_THROW(trace.validate());
  const int nodes = (tasks + 1) / 2;
  const auto cluster = topo::ClusterSpec::uniform(
      "churnfuzz", nodes, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto scenario =
      churn_scenario(static_cast<uint64_t>(GetParam()) + 17, nodes);
  ASSERT_NO_THROW(scenario.validate(tasks, nodes));
  expect_verify_matches_default(trace, cluster, placement, provider,
                                scenario);
}

TEST_P(ChurnScenarioFuzz, MyrinetModelVerifiesUnderChurn) {
  // The Myrinet model on two tasks per node: intra-node copies run beside
  // network flows, and aborts and background injections reshape the
  // conflict graphs whose state sets the model enumerates.
  Rng rng(static_cast<uint64_t>(GetParam()) * 700001 + 1301);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace =
      churn_trace(static_cast<uint64_t>(GetParam()) + 1300, tasks);
  ASSERT_NO_THROW(trace.validate());
  const int nodes = (tasks + 1) / 2;
  const auto cal = topo::myrinet2000_calibration();
  const auto cluster = topo::ClusterSpec::uniform("churnmyri", nodes, 2, cal);
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  const auto scenario =
      churn_scenario(static_cast<uint64_t>(GetParam()) + 71, nodes);
  ASSERT_NO_THROW(scenario.validate(tasks, nodes));
  expect_verify_matches_default(trace, cluster, placement, provider,
                                scenario);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnScenarioFuzz, ::testing::Range(0, 6));

// --- generator families x providers under churn ----------------------------

void check_scheme_churn(const graph::CommGraph& scheme,
                        const flowsim::RateProvider& provider,
                        const topo::NetworkCalibration& cal, uint64_t seed) {
  const auto trace = trace_from_scheme(scheme);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster =
      topo::ClusterSpec::uniform("churnequiv", scheme.num_nodes(), 1, cal);
  const auto scenario = churn_scenario(seed + 5, scheme.num_nodes());
  expect_verify_matches_default(trace, cluster,
                                identity_placement(scheme.num_nodes()),
                                provider, scenario);
}

class ChurnGeneratedSchemes : public ::testing::TestWithParam<SpecSeed> {};

TEST_P(ChurnGeneratedSchemes, FluidProviderVerifiesUnderChurn) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(cal);
  check_scheme_churn(scheme, provider, cal, std::get<1>(GetParam()));
}

TEST_P(ChurnGeneratedSchemes, GigeModelProviderVerifiesUnderChurn) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  check_scheme_churn(scheme, provider, cal, std::get<1>(GetParam()));
}

TEST_P(ChurnGeneratedSchemes, MyrinetModelProviderVerifiesUnderChurn) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::myrinet2000_calibration();
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  check_scheme_churn(scheme, provider, cal, std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ChurnGeneratedSchemes,
                         ::testing::Combine(all_family_specs(),
                                            ::testing::Values(1u, 2u)),
                         spec_seed_name);

// --- fail / leave / join semantics -----------------------------------------

AppTrace one_rendezvous(double bytes) {
  AppTrace trace(2);
  trace.push(1, Event::irecv(0, bytes));
  trace.push(0, Event::isend(1, bytes));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::wait_all());
  return trace;
}

struct Fixture {
  topo::ClusterSpec cluster = topo::ClusterSpec::uniform(
      "churnsem", 2, 1, topo::gigabit_ethernet_calibration());
  Placement placement = identity_placement(2);
  flowsim::FluidRateProvider provider{cluster.network()};
};

TEST(EngineChurn, FailAbortsInFlightTransfersAtTheFailureInstant) {
  Fixture f;
  const auto trace = one_rendezvous(4e7);
  const auto base = run_simulation(trace, f.cluster, f.placement, f.provider);
  ASSERT_GT(base.makespan, 0.01);

  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kFail, 1});
  const auto failed = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(failed.aborted_comms, 1u);
  ASSERT_EQ(failed.comms.size(), 1u);
  EXPECT_TRUE(failed.comms[0].aborted);
  // The abort happens exactly when the script fires, and both blocked tasks
  // unblock there — the replay ends early instead of deadlocking.
  EXPECT_DOUBLE_EQ(failed.comms[0].finish, 0.01);
  EXPECT_LT(failed.makespan, base.makespan);
  // Aborted records carry a partial penalty and are excluded from the mean.
  EXPECT_DOUBLE_EQ(failed.average_penalty(), 1.0);
}

TEST(EngineChurn, LeaveDrainsInFlightTransfersUntouched) {
  // kLeave marks the node down for background admission but lets every
  // in-flight and future measured transfer drain — bit-identical replay.
  Fixture f;
  const auto trace = one_rendezvous(4e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kLeave, 1});
  const auto left = run_simulation(trace, f.cluster, f.placement, f.provider,
                                   scenario);
  EXPECT_EQ(left.aborted_comms, 0u);
  expect_bit_identical(base, left);
}

TEST(EngineChurn, MeasuredJobKeepsUsingAFailedNode) {
  // Transient-fault model: failures abort what was in flight, but the
  // measured job's later transfers still use the node, so replays always
  // terminate.
  Fixture f;
  AppTrace trace(2);
  trace.push(0, Event::compute(0.05));
  trace.push(1, Event::irecv(0, 1e6));
  trace.push(0, Event::isend(1, 1e6));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::wait_all());
  Scenario scenario;
  scenario.churn.push_back({0.01, graph::ChurnKind::kFail, 1});
  const auto result = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(result.aborted_comms, 0u);
  ASSERT_EQ(result.comms.size(), 1u);
  EXPECT_FALSE(result.comms[0].aborted);
  EXPECT_GT(result.makespan, 0.05);
}

// --- background cross-traffic ----------------------------------------------

TEST(EngineChurn, BackgroundFlowContendsButIsExcludedFromThePenaltyMean) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.background.push_back({0.0, 0, 1, 2e7});
  const auto loaded = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(loaded.background_comms, 1u);
  EXPECT_EQ(loaded.background_skipped, 0u);
  EXPECT_GT(loaded.makespan, base.makespan);
  ASSERT_EQ(loaded.comms.size(), 2u);
  size_t bg = loaded.comms[0].background ? 0 : 1;
  EXPECT_TRUE(loaded.comms[bg].background);
  EXPECT_EQ(loaded.comms[bg].src_task, -1);
  EXPECT_EQ(loaded.comms[bg].dst_task, -1);
  // average_penalty reflects only the measured record, which was slowed.
  EXPECT_DOUBLE_EQ(loaded.average_penalty(),
                   loaded.comms[1 - bg].penalty);
  EXPECT_GT(loaded.average_penalty(), 1.0);
}

TEST(EngineChurn, DownNodesRefuseBackgroundAdmission) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.down_at_start.push_back(1);
  scenario.background.push_back({0.0, 0, 1, 2e7});
  const auto gated = run_simulation(trace, f.cluster, f.placement,
                                    f.provider, scenario);
  EXPECT_EQ(gated.background_comms, 0u);
  EXPECT_EQ(gated.background_skipped, 1u);
  // The skipped flow never entered the rate structure.
  EXPECT_DOUBLE_EQ(gated.makespan, base.makespan);
}

TEST(EngineChurn, JoinReopensBackgroundAdmission) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  Scenario scenario;
  scenario.down_at_start.push_back(1);
  scenario.churn.push_back({0.005, graph::ChurnKind::kJoin, 1});
  scenario.background.push_back({0.01, 0, 1, 2e7});
  const auto result = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(result.background_comms, 1u);
  EXPECT_EQ(result.background_skipped, 0u);
}

TEST(EngineChurn, ScriptEventsBeyondTheMakespanNeverFire) {
  Fixture f;
  const auto trace = one_rendezvous(2e7);
  const auto base =
      run_simulation(trace, f.cluster, f.placement, f.provider);
  Scenario scenario;
  scenario.background.push_back({base.makespan + 10.0, 0, 1, 2e7});
  scenario.churn.push_back(
      {base.makespan + 20.0, graph::ChurnKind::kFail, 1});
  const auto result = run_simulation(trace, f.cluster, f.placement,
                                     f.provider, scenario);
  EXPECT_EQ(result.background_comms, 0u);
  EXPECT_EQ(result.aborted_comms, 0u);
  expect_bit_identical(base, result);
}

// --- validation ------------------------------------------------------------

TEST(EngineChurn, ScenarioValidationRejectsBadScripts) {
  Fixture f;
  const auto trace = one_rendezvous(1e6);
  {
    Scenario s;
    s.churn.push_back({0.1, graph::ChurnKind::kFail, 7});  // node out of range
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
  {
    Scenario s;
    s.background.push_back({0.1, 0, 0, 1e6});  // self-flow
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
  {
    Scenario s;
    s.churn.push_back({-1.0, graph::ChurnKind::kJoin, 0});  // negative time
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
  {
    Scenario s;
    s.job_of = {0};  // wrong size for a 2-task trace
    EXPECT_THROW((void)run_simulation(trace, f.cluster, f.placement,
                                      f.provider, s),
                 Error);
  }
}

TEST(EngineChurn, EmptyScenarioMatchesTheLegacyOverload) {
  Fixture f;
  const auto trace = churn_trace(99, 6);
  const auto cluster = topo::ClusterSpec::uniform(
      "churnlegacy", 3, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRoundRobinNode, cluster, 6);
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto legacy = run_simulation(trace, cluster, placement, provider);
  const auto scripted =
      run_simulation(trace, cluster, placement, provider, Scenario{});
  expect_bit_identical(legacy, scripted);
}

}  // namespace
}  // namespace bwshare::sim
