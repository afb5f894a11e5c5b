// Campaign acceptance suite: determinism across thread counts (reports are
// byte-identical, elimination order included), the arm-error contract, the
// replicate seed-stream pins, and the headline claim — an adaptive campaign
// answers the advisor question with the same winner as an exhaustive
// fixed-grid run at a >= 3x replay discount.
#include "eval/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <string>

#include "models/registry.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace bwshare::eval {
namespace {

std::string write_temp_trace(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::ofstream file(path);
  file << "tasks 4\n"
          "0 send 1 4000000\n"
          "1 recv 0 4000000\n"
          "1 send 2 4000000\n"
          "2 recv 1 4000000\n"
          "2 send 3 4000000\n"
          "3 recv 2 4000000\n";
  return path;
}

std::string network_name(topo::NetworkTech tech) {
  switch (tech) {
    case topo::NetworkTech::kGigabitEthernet: return "gige";
    case topo::NetworkTech::kMyrinet2000: return "myrinet";
    case topo::NetworkTech::kInfinibandInfinihost3: return "ib";
  }
  return "?";
}

/// An arm's point on every axis, as one comparable line.
std::string identity(const std::string& kind, const std::string& workload,
                     const std::string& network, const std::string& model,
                     int nodes, int cores, const std::string& policy,
                     double churn, double background) {
  return strformat("%s %s %s %s %dx%d %s %g %g", kind.c_str(),
                   workload.c_str(), network.c_str(), model.c_str(), nodes,
                   cores, policy.c_str(), churn, background);
}

std::string identity(const CampaignArm& a) {
  return identity(a.kind, a.workload, a.network, a.model, a.nodes, a.cores,
                  a.policy, a.churn_rate, a.background_load);
}

// The advisor-shaped spec the determinism and savings tests share: one
// trace workload, three interconnects as arms, random placement as the
// per-replicate noise source.
CampaignSpec advisor_spec(const std::string& trace_path) {
  CampaignSpec spec;
  spec.grid.traces = {trace_path};
  spec.grid.networks = {topo::NetworkTech::kGigabitEthernet,
                        topo::NetworkTech::kMyrinet2000,
                        topo::NetworkTech::kInfinibandInfinihost3};
  spec.grid.shapes = {{4, 2}};
  spec.grid.policies = {sim::SchedulingPolicy::kRandom};
  spec.objective = Objective::kMeasuredSeconds;
  spec.stop.rule = stats::StoppingRule::kBestArm;
  spec.stop.min_replicates = 4;
  spec.stop.max_replicates = 30;
  spec.stop.resamples = 200;
  spec.batch = 4;
  spec.seed = 7;
  spec.stop.ci_seed = 7;
  return spec;
}

TEST(Campaign, ReplicateSeedStreamIsPureAndCollisionFree) {
  // The documented contract: seed = f(campaign_seed, arm, replicate), no
  // dependence on rounds or threads (there is nothing else to depend on),
  // and no collisions between neighbouring (arm, replicate) pairs.
  EXPECT_EQ(campaign_replicate_seed(42, 3, 7),
            campaign_replicate_seed(42, 3, 7));
  std::set<uint64_t> seen;
  for (size_t arm = 0; arm < 8; ++arm) {
    for (int r = 0; r < 64; ++r) {
      seen.insert(campaign_replicate_seed(42, arm, r));
    }
  }
  EXPECT_EQ(seen.size(), 8u * 64u);
  // Distinct campaign seeds give distinct streams.
  EXPECT_NE(campaign_replicate_seed(1, 0, 0), campaign_replicate_seed(2, 0, 0));
}

TEST(Campaign, ExpandsArmsAndExhaustiveBudget) {
  CampaignSpec spec;
  spec.grid.schemes = {"mk1", "mk2"};
  spec.grid.networks = {topo::NetworkTech::kGigabitEthernet,
                        topo::NetworkTech::kMyrinet2000};
  spec.stop.max_replicates = 50;
  const Campaign campaign(std::move(spec));
  EXPECT_EQ(campaign.num_arms(), 4u);  // 2 schemes x 2 networks x 1 x 1
  EXPECT_EQ(campaign.exhaustive_replicates(), 200u);
}

TEST(Campaign, ArmsComeInTheDocumentedOrder) {
  CampaignSpec spec;
  spec.grid.schemes = {"mk1", "ring:nodes=5"};
  spec.grid.traces = {write_temp_trace("campaign_order_a.trace"),
                      write_temp_trace("campaign_order_b.trace")};
  spec.grid.networks = {topo::NetworkTech::kGigabitEthernet,
                        topo::NetworkTech::kMyrinet2000};
  spec.grid.models = {"network", "loggp"};
  spec.grid.shapes = {{2, 2}, {4, 1}};
  spec.grid.policies = {sim::SchedulingPolicy::kRoundRobinNode,
                        sim::SchedulingPolicy::kRandom};
  spec.grid.churn_rates = {0.0, 20.0};
  spec.grid.background_loads = {0.0, 100.0};
  spec.stop.min_replicates = 1;
  spec.stop.max_replicates = 1;
  spec.stop.resamples = 10;
  spec.batch = 1;

  // Sweep's documented order without its seed axis: workloads (schemes
  // first, then traces, each in listed order) x networks x models x shapes
  // [x policies x churn_rates x background_loads, trace arms only]. A
  // generated scheme's cluster grows to fit the graph drawn with the arm's
  // first replicate seed.
  std::vector<ResolvedWorkload> workloads;
  for (const auto& e : spec.grid.schemes) {
    workloads.push_back(resolve_scheme_workload(e));
  }
  for (const auto& e : spec.grid.traces) {
    workloads.push_back(resolve_trace_workload(e));
  }
  std::vector<std::string> want;
  for (const auto& w : workloads) {
    for (const auto tech : spec.grid.networks) {
      for (const auto& model : spec.grid.models) {
        const std::string model_name =
            model == "network" ? models::model_for(tech)->name()
                               : models::make_model(model)->name();
        for (const auto& shape : spec.grid.shapes) {
          if (!w.is_trace()) {
            const uint64_t seed =
                campaign_replicate_seed(spec.seed, want.size(), 0);
            const int scheme_nodes =
                w.generator
                    ? graph::generate_scheme(*w.generator, seed).num_nodes()
                    : w.scheme->num_nodes();
            want.push_back(identity("scheme", w.key, network_name(tech),
                                    model_name,
                                    std::max(shape.nodes, scheme_nodes),
                                    shape.cores, "-", 0.0, 0.0));
            continue;
          }
          for (const auto policy : spec.grid.policies) {
            for (const double churn : spec.grid.churn_rates) {
              for (const double background : spec.grid.background_loads) {
                want.push_back(identity("trace", w.key, network_name(tech),
                                        model_name, shape.nodes, shape.cores,
                                        sim::to_string(policy), churn,
                                        background));
              }
            }
          }
        }
      }
    }
  }

  const auto check = [&want](const Campaign& campaign) {
    EXPECT_EQ(campaign.num_arms(), want.size());
    const auto result = campaign.run(2);
    ASSERT_EQ(result.arms.size(), want.size());
    for (size_t a = 0; a < want.size(); ++a) {
      EXPECT_EQ(result.arms[a].replicates, 1) << "arm " << a;
      EXPECT_EQ(identity(result.arms[a]), want[a]) << "arm " << a;
    }
  };
  check(Campaign(spec));
  // Pre-resolved workloads listed traces first still expand schemes first.
  CampaignSpec in_memory = spec;
  in_memory.grid.schemes.clear();
  in_memory.grid.traces.clear();
  std::vector<ResolvedWorkload> interleaved = {workloads[2], workloads[0],
                                               workloads[3], workloads[1]};
  check(Campaign(std::move(in_memory), std::move(interleaved)));
}

TEST(Campaign, Validation) {
  CampaignSpec no_workloads;
  EXPECT_THROW(Campaign{std::move(no_workloads)}, Error);

  CampaignSpec bad_batch;
  bad_batch.grid.schemes = {"mk1"};
  bad_batch.batch = 0;
  EXPECT_THROW(Campaign{std::move(bad_batch)}, Error);

  // Grid entries and pre-resolved workloads are mutually exclusive.
  CampaignSpec both;
  both.grid.schemes = {"mk1"};
  std::vector<ResolvedWorkload> workloads = {resolve_scheme_workload("mk2")};
  EXPECT_THROW(Campaign(std::move(both), std::move(workloads)), Error);

  CampaignSpec empty;
  EXPECT_THROW(Campaign(std::move(empty), {}), Error);

  EXPECT_THROW((void)objective_from_string("latency"), Error);
  for (const auto objective : {Objective::kMeasuredSeconds,
                               Objective::kPredictedSeconds,
                               Objective::kEabsPct}) {
    EXPECT_EQ(objective_from_string(to_string(objective)), objective);
  }
}

TEST(Campaign, ThreadCountsOutsideTheRangeAreErrors) {
  CampaignSpec spec;
  spec.grid.schemes = {"mk1"};
  spec.grid.networks = {topo::NetworkTech::kGigabitEthernet,
                        topo::NetworkTech::kMyrinet2000};
  spec.grid.models = {"network"};
  spec.stop.min_replicates = 2;
  spec.stop.max_replicates = 4;
  spec.stop.resamples = 50;
  spec.batch = 2;
  const Campaign campaign(std::move(spec));
  for (const int threads : {-1, util::kMaxThreads + 1}) {
    try {
      (void)campaign.run(threads);
      ADD_FAILURE() << "threads=" << threads << " ran";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("threads must be in [0, 4096]"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest count is accepted and starts only as many threads as a
  // round has replays; the report does not change.
  EXPECT_EQ(campaign.run(util::kMaxThreads).to_json(),
            campaign.run(1).to_json());
}

TEST(Campaign, ErroredArmIsRecordedAndNeverAbortsTheCampaign) {
  // Shape 1x1 cannot place a 4-task trace (sim::make_placement throws
  // inside the replicate); shape 4x2 can. The failing arm must be recorded
  // status=error with its message and round, the healthy arm must win, and
  // run() must not throw.
  CampaignSpec spec;
  spec.grid.traces = {write_temp_trace("campaign_error.trace")};
  spec.grid.shapes = {{1, 1}, {4, 2}};
  spec.stop.rule = stats::StoppingRule::kBestArm;
  spec.stop.min_replicates = 4;
  spec.stop.max_replicates = 16;
  spec.stop.resamples = 100;
  spec.batch = 4;
  const Campaign campaign(std::move(spec));
  ASSERT_EQ(campaign.num_arms(), 2u);
  const auto result = campaign.run(2);

  const auto& broken = result.arms[0];
  EXPECT_TRUE(broken.error);
  EXPECT_EQ(broken.status(), "error");
  EXPECT_FALSE(broken.error_msg.empty());
  EXPECT_EQ(broken.out_round, 1);       // died while round 1 was sampling
  EXPECT_EQ(broken.replicates, 4);      // the round's replays still count
  EXPECT_EQ(broken.nodes, 1);           // identity backfilled from the axis
  EXPECT_EQ(broken.cores, 1);

  const auto& healthy = result.arms[1];
  EXPECT_FALSE(healthy.error);
  EXPECT_EQ(result.winner, 1);
  EXPECT_TRUE(healthy.winner);
  EXPECT_EQ(healthy.status(), "winner");
  EXPECT_GT(healthy.mean, 0.0);
  // With its only rival gone the best-arm rule stops at the first verdict.
  EXPECT_EQ(result.stopped_by, "best-arm");
}

TEST(Campaign, AllArmsErroredStillReturnsAReport) {
  CampaignSpec spec;
  spec.grid.traces = {write_temp_trace("campaign_all_error.trace")};
  spec.grid.shapes = {{1, 1}};
  spec.stop.min_replicates = 2;
  spec.stop.max_replicates = 8;
  spec.stop.resamples = 100;
  spec.batch = 2;
  const Campaign campaign(std::move(spec));
  const auto result = campaign.run(1);
  EXPECT_EQ(result.winner, -1);
  EXPECT_EQ(result.stopped_by, "max-replicates");
  EXPECT_TRUE(result.arms[0].error);
  EXPECT_EQ(result.savings_factor(),
            static_cast<double>(result.exhaustive_replicates) /
                static_cast<double>(result.total_replicates));
}

TEST(Campaign, PredictedObjectiveScoresArmsByPredictedSeconds) {
  // Scheme cells carry no per-replicate noise, so every replicate of an
  // arm scores the same and the arm's mean is its cell's predicted time.
  const std::vector<topo::NetworkTech> networks = {
      topo::NetworkTech::kGigabitEthernet, topo::NetworkTech::kMyrinet2000,
      topo::NetworkTech::kInfinibandInfinihost3};
  CampaignSpec spec;
  spec.grid.schemes = {"mk1"};
  spec.grid.networks = networks;
  spec.objective = Objective::kPredictedSeconds;
  spec.stop.min_replicates = 2;
  spec.stop.max_replicates = 2;
  spec.stop.resamples = 100;
  spec.batch = 2;
  const auto result = Campaign(std::move(spec)).run(1);
  EXPECT_EQ(result.objective, "predicted");

  SweepSpec grid;
  grid.schemes = {"mk1"};
  grid.networks = networks;
  const auto cells = Sweep(std::move(grid)).run(1).cells;
  ASSERT_EQ(result.arms.size(), cells.size());
  size_t fastest = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    ASSERT_TRUE(cells[i].ok) << cells[i].error;
    if (cells[i].predicted_s < cells[fastest].predicted_s) fastest = i;
    const auto arm = std::find_if(
        result.arms.begin(), result.arms.end(),
        [&](const CampaignArm& a) { return a.network == cells[i].network; });
    ASSERT_NE(arm, result.arms.end()) << cells[i].network;
    EXPECT_EQ(arm->replicates, 2);
    EXPECT_DOUBLE_EQ(arm->mean, cells[i].predicted_s) << arm->network;
    EXPECT_NE(arm->mean, cells[i].measured_s) << arm->network;
  }
  ASSERT_GE(result.winner, 0);
  EXPECT_EQ(result.arms[static_cast<size_t>(result.winner)].network,
            cells[fastest].network);
}

TEST(Campaign, ReportSchemaIsStable) {
  CampaignSpec spec;
  spec.grid.schemes = {"mk1"};
  spec.stop.rule = stats::StoppingRule::kCutoff;
  spec.stop.min_replicates = 2;
  spec.stop.max_replicates = 4;
  spec.stop.resamples = 100;
  spec.batch = 2;
  spec.objective = Objective::kEabsPct;
  const Campaign campaign(std::move(spec));
  const auto result = campaign.run(1);
  const std::string csv = result.to_csv();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "arm,kind,workload,network,model,nodes,cores,policy,churn_rate,"
            "background_load,replicates,mean,ci_low,ci_high,out_round,status,"
            "error");
  const std::string json = result.to_json();
  for (const char* key :
       {"\"summary\"", "\"objective\"", "\"stopped_by\"", "\"rounds\"",
        "\"total_replicates\"", "\"exhaustive_replicates\"",
        "\"savings_factor\"", "\"winner\"", "\"arms\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(Campaign, InMemoryWorkloadsMatchFileWorkloads) {
  // The network_advisor path: a pre-resolved in-memory trace must produce
  // exactly the report the file-resolved grid produces (modulo the
  // workload display name, which the caller chooses).
  const std::string path = write_temp_trace("campaign_inmem.trace");
  auto from_file = advisor_spec(path);
  from_file.stop.max_replicates = 8;
  const auto file_result = Campaign(from_file).run(2);

  CampaignSpec in_memory = from_file;
  in_memory.grid.traces.clear();
  std::vector<ResolvedWorkload> workloads(1);
  workloads[0].key = path;  // same display name -> byte-identical reports
  workloads[0].trace =
      std::make_shared<const sim::AppTrace>(sim::read_trace_file(path));
  const auto mem_result =
      Campaign(std::move(in_memory), std::move(workloads)).run(2);

  EXPECT_EQ(file_result.to_csv(), mem_result.to_csv());
  EXPECT_EQ(file_result.to_json(), mem_result.to_json());
}

TEST(Campaign, ReportIsByteIdenticalAcrossThreadCounts) {
  // The determinism contract, end to end: CSV and JSON reports — means,
  // CIs, replicate counts, out_rounds, statuses — must match byte for byte
  // at 1, 4 and 11 workers, under the elimination rule so the test also
  // pins elimination order against ingest races.
  const std::string path = write_temp_trace("campaign_threads.trace");
  auto spec = advisor_spec(path);
  spec.stop.rule = stats::StoppingRule::kCutoff;
  spec.stop.max_replicates = 20;
  const Campaign campaign(std::move(spec));
  const auto base = campaign.run(1);
  // The scenario must actually exercise elimination for the pin to mean
  // anything: gige loses to the faster fabrics and must be cut.
  ASSERT_EQ(base.stopped_by, "cutoff");
  int eliminated = 0;
  for (const auto& arm : base.arms) eliminated += arm.eliminated ? 1 : 0;
  ASSERT_GE(eliminated, 1);
  for (const int threads : {4, 11}) {
    const auto other = campaign.run(threads);
    EXPECT_EQ(base.to_csv(), other.to_csv()) << threads << " threads";
    EXPECT_EQ(base.to_json(), other.to_json()) << threads << " threads";
  }
}

TEST(Campaign, AdaptiveMatchesExhaustiveWinnerAtAThirdOfTheCost) {
  // The acceptance criterion: same spec run (a) exhaustively — every arm
  // to max_replicates, which is what min == max forces — and (b)
  // adaptively. Same winner, >= 3x fewer replays.
  const std::string path = write_temp_trace("campaign_savings.trace");
  auto exhaustive_spec = advisor_spec(path);
  exhaustive_spec.stop.min_replicates = exhaustive_spec.stop.max_replicates;
  exhaustive_spec.batch = exhaustive_spec.stop.max_replicates;
  const auto exhaustive = Campaign(std::move(exhaustive_spec)).run(2);
  ASSERT_GE(exhaustive.winner, 0);
  // min == max forces the full budget in one round, whatever rule fires.
  ASSERT_EQ(exhaustive.total_replicates, exhaustive.exhaustive_replicates);

  const auto adaptive = Campaign(advisor_spec(path)).run(2);
  EXPECT_EQ(adaptive.winner, exhaustive.winner);
  EXPECT_EQ(adaptive.stopped_by, "best-arm");
  EXPECT_LE(adaptive.total_replicates * 3, exhaustive.total_replicates)
      << "adaptive used " << adaptive.total_replicates << " of "
      << exhaustive.total_replicates;
  EXPECT_GE(adaptive.savings_factor(), 3.0);
}

}  // namespace
}  // namespace bwshare::eval
