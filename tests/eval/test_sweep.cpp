#include "eval/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <string>

#include "util/error.hpp"
#include "util/parallel.hpp"

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

TEST(SweepShape, ParsesAndValidates) {
  const auto shape = parse_sweep_shape("16x2");
  EXPECT_EQ(shape.nodes, 16);
  EXPECT_EQ(shape.cores, 2);
  EXPECT_THROW((void)parse_sweep_shape("16"), Error);
  EXPECT_THROW((void)parse_sweep_shape("x2"), Error);
  EXPECT_THROW((void)parse_sweep_shape("16x"), Error);
  EXPECT_THROW((void)parse_sweep_shape("0x2"), Error);
  EXPECT_THROW((void)parse_sweep_shape("axb"), Error);
  // 2^32+1 must error, not wrap to a 1-node cluster.
  EXPECT_THROW((void)parse_sweep_shape("4294967297x2"), Error);
  EXPECT_THROW((void)parse_sweep_shape("2x4294967297"), Error);
}

TEST(SweepSpec, ValidateRejectsEmptyAxes) {
  SweepSpec spec;  // no workloads at all
  EXPECT_THROW(spec.validate(), Error);
  spec.schemes = {"mk1"};
  EXPECT_NO_THROW(spec.validate());
  spec.networks.clear();
  EXPECT_THROW(spec.validate(), Error);
}

TEST(SweepSpec, ValidateRejectsUnknownModelName) {
  SweepSpec spec;
  spec.schemes = {"mk1"};
  spec.models = {"definitely-not-a-model"};
  EXPECT_THROW(spec.validate(), Error);
}

TEST(Sweep, BuiltinSizeOverrideScalesTimes) {
  SweepSpec base;
  base.schemes = {"mk1"};
  const auto at_4m = Sweep(std::move(base)).run(1);
  SweepSpec doubled;
  doubled.schemes = {"mk1@8M"};
  const auto at_8m = Sweep(std::move(doubled)).run(1);
  ASSERT_TRUE(at_4m.cells[0].ok && at_8m.cells[0].ok);
  // Same graph, twice the bytes: measured time roughly doubles while the
  // penalty structure (and so E_abs) stays put.
  EXPECT_NEAR(at_8m.cells[0].measured_s / at_4m.cells[0].measured_s, 2.0,
              0.1);
  EXPECT_NEAR(at_8m.cells[0].eabs_pct, at_4m.cells[0].eabs_pct, 2.0);
  SweepSpec bad_size;
  bad_size.schemes = {"mk1@4Q"};
  EXPECT_THROW(Sweep{std::move(bad_size)}, Error);
}

TEST(Sweep, RejectsUnknownBuiltinScheme) {
  SweepSpec spec;
  spec.schemes = {"fig99"};
  EXPECT_THROW(Sweep{std::move(spec)}, Error);
}

TEST(Sweep, RejectsMalformedGeneratorSpec) {
  SweepSpec spec;
  spec.schemes = {"torus:nodes=4"};
  EXPECT_THROW(Sweep{std::move(spec)}, Error);
}

TEST(Sweep, NumJobsIsTheCrossProduct) {
  SweepSpec spec;
  spec.schemes = {"mk1", "mk2", "fig2_s4"};
  spec.traces = {write_temp_trace("sweep_jobs.trace")};
  spec.networks = {topo::NetworkTech::kGigabitEthernet,
                   topo::NetworkTech::kMyrinet2000};
  spec.models = {"network", "loggp"};
  spec.shapes = {{16, 2}};
  spec.policies = {sim::SchedulingPolicy::kRoundRobinNode,
                   sim::SchedulingPolicy::kRandom};
  spec.seeds = {1, 2, 3};
  const Sweep sweep(std::move(spec));
  // schemes: 3 * 2 * 2 * 1 * 3 (policies do not apply)   = 36
  // traces:  1 * 2 * 2 * 1 * 2 * 3                       = 24
  EXPECT_EQ(sweep.num_jobs(), 60u);
}

TEST(Sweep, ThreadCountsOutsideTheRangeAreErrors) {
  SweepSpec spec;
  spec.schemes = {"mk1"};
  spec.networks = {topo::NetworkTech::kGigabitEthernet};
  spec.models = {"network"};
  spec.seeds = {1};
  const Sweep sweep(std::move(spec));
  for (const int threads : {-1, util::kMaxThreads + 1}) {
    try {
      (void)sweep.run(threads);
      ADD_FAILURE() << "threads=" << threads << " ran";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("threads must be in [0, 4096]"),
                std::string::npos)
          << e.what();
    }
  }
  // The largest count is accepted; one cell still runs on the caller.
  EXPECT_EQ(sweep.run(util::kMaxThreads).to_csv(), sweep.run(1).to_csv());
}

TEST(Sweep, RunsTheAcceptanceGrid) {
  SweepSpec spec;
  spec.schemes = {"mk1", "mk2"};
  spec.networks = {topo::NetworkTech::kGigabitEthernet,
                   topo::NetworkTech::kMyrinet2000};
  spec.models = {"gige", "myrinet"};
  spec.seeds = {1, 2, 3};
  const Sweep sweep(std::move(spec));
  EXPECT_EQ(sweep.num_jobs(), 24u);
  const auto result = sweep.run(2);
  ASSERT_EQ(result.cells.size(), 24u);
  EXPECT_EQ(result.num_errors, 0u);
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.ok) << cell.error;
    EXPECT_EQ(cell.kind, "scheme");
    EXPECT_EQ(cell.policy, "-");
    EXPECT_GT(cell.units, 0);
    EXPECT_GT(cell.measured_s, 0.0);
    EXPECT_GT(cell.predicted_s, 0.0);
    EXPECT_GE(cell.max_abs_erel_pct, cell.eabs_pct * 0.999);
  }
  // Marginals cover every axis value with the right cell counts.
  bool found_mk1 = false;
  for (const auto& m : result.marginals) {
    if (m.axis == "workload" && m.value == "mk1") {
      found_mk1 = true;
      EXPECT_EQ(m.cells, 12u);  // 2 networks * 2 models * 3 seeds
      EXPECT_GE(m.max_eabs_pct, m.mean_eabs_pct);
    }
  }
  EXPECT_TRUE(found_mk1);
}

// The tentpole guarantee: byte-identical CSV and JSON at 1, 4 and N threads,
// including generated workloads and random placement.
TEST(Sweep, OutputIsByteIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.schemes = {"mk1", "random:nodes=8,comms=12,spread=1",
                  "hotspot:nodes=6"};
  spec.traces = {write_temp_trace("sweep_determinism.trace")};
  spec.networks = {topo::NetworkTech::kGigabitEthernet,
                   topo::NetworkTech::kMyrinet2000};
  spec.models = {"network", "loggp"};
  spec.policies = {sim::SchedulingPolicy::kRandom};
  spec.seeds = {1, 2, 3};
  const Sweep sweep(std::move(spec));

  const auto baseline = sweep.run(1);
  const std::string csv = baseline.to_csv();
  const std::string json = baseline.to_json();
  EXPECT_EQ(baseline.num_errors, 0u);
  for (const int threads : {4, 11}) {
    const auto result = sweep.run(threads);
    EXPECT_EQ(result.to_csv(), csv) << "threads=" << threads;
    EXPECT_EQ(result.to_json(), json) << "threads=" << threads;
  }
}

TEST(Sweep, SchemeFilesAndClusterGrowth) {
  SweepSpec spec;
  spec.schemes = {std::string(BWSHARE_SOURCE_DIR) + "/data/fig2_s4.scheme"};
  spec.shapes = {{2, 2}};  // smaller than the scheme's 5 nodes
  const Sweep sweep(std::move(spec));
  const auto result = sweep.run(1);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells[0].ok) << result.cells[0].error;
  EXPECT_EQ(result.cells[0].units, 4);
  EXPECT_EQ(result.cells[0].nodes, 5);  // grown to fit the scheme
}

TEST(Sweep, CellErrorsAreRecordedNotThrown) {
  SweepSpec spec;
  spec.traces = {write_temp_trace("sweep_errors.trace")};
  spec.shapes = {{1, 1}};  // 4 tasks cannot fit one core
  const Sweep sweep(std::move(spec));
  const auto result = sweep.run(2);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_FALSE(result.cells[0].ok);
  EXPECT_FALSE(result.cells[0].error.empty());
  EXPECT_EQ(result.num_errors, 1u);
  // Errored cells surface in the CSV status column.
  EXPECT_NE(result.to_csv().find(",error,"), std::string::npos);
}

TEST(Sweep, TraceCellsCrossPolicies) {
  SweepSpec spec;
  spec.traces = {write_temp_trace("sweep_policies.trace")};
  spec.policies = {sim::SchedulingPolicy::kRoundRobinNode,
                   sim::SchedulingPolicy::kRoundRobinProcessor};
  spec.shapes = {{4, 2}};
  const Sweep sweep(std::move(spec));
  const auto result = sweep.run(2);
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.cells[0].policy, "RRN");
  EXPECT_EQ(result.cells[1].policy, "RRP");
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.ok) << cell.error;
    EXPECT_EQ(cell.kind, "trace");
    EXPECT_EQ(cell.units, 4);
    EXPECT_GT(cell.measured_s, 0.0);
  }
  // Policy marginals only exist when trace cells exist.
  bool found_policy_marginal = false;
  for (const auto& m : result.marginals) {
    found_policy_marginal |= m.axis == "policy";
  }
  EXPECT_TRUE(found_policy_marginal);
}

TEST(Sweep, ChurnAxesCrossTraceCellsOnly) {
  SweepSpec spec;
  spec.schemes = {"mk1"};
  spec.traces = {write_temp_trace("sweep_churn_axes.trace")};
  spec.shapes = {{4, 2}};
  spec.churn_rates = {0.0, 30.0};
  spec.background_loads = {0.0, 200.0};
  spec.seeds = {1};
  const Sweep sweep(std::move(spec));
  // Scheme cells are static solves — the dynamic axes only multiply the
  // trace cells: 1 scheme + 1 trace * 2 churn * 2 background.
  EXPECT_EQ(sweep.num_jobs(), 5u);
  const auto result = sweep.run(2);
  ASSERT_EQ(result.cells.size(), 5u);
  size_t dynamic_cells = 0;
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.ok) << cell.error;
    if (cell.kind == "scheme") {
      EXPECT_DOUBLE_EQ(cell.churn_rate, 0.0);
      EXPECT_DOUBLE_EQ(cell.background_load, 0.0);
    }
    if (cell.churn_rate > 0.0 || cell.background_load > 0.0) {
      ++dynamic_cells;
      EXPECT_EQ(cell.kind, "trace");
      EXPECT_GT(cell.measured_s, 0.0);
    }
  }
  EXPECT_EQ(dynamic_cells, 3u);
  // Marginals summarize the new axes (trace workloads present).
  bool churn_marginal = false, background_marginal = false;
  for (const auto& m : result.marginals) {
    churn_marginal |= m.axis == "churn_rate";
    background_marginal |= m.axis == "background_load";
  }
  EXPECT_TRUE(churn_marginal);
  EXPECT_TRUE(background_marginal);
}

TEST(Sweep, ChurnedCellsAreByteIdenticalAcrossThreadCounts) {
  SweepSpec spec;
  spec.traces = {write_temp_trace("sweep_churn_determinism.trace")};
  spec.shapes = {{4, 2}};
  spec.policies = {sim::SchedulingPolicy::kRandom};
  spec.churn_rates = {0.0, 40.0};
  spec.background_loads = {0.0, 400.0};
  spec.seeds = {1, 2};
  const Sweep sweep(std::move(spec));
  const auto baseline = sweep.run(1);
  EXPECT_EQ(baseline.num_errors, 0u);
  const std::string csv = baseline.to_csv();
  const std::string json = baseline.to_json();
  for (const int threads : {4, 11}) {
    const auto result = sweep.run(threads);
    EXPECT_EQ(result.to_csv(), csv) << "threads=" << threads;
    EXPECT_EQ(result.to_json(), json) << "threads=" << threads;
  }
}

TEST(SweepResult, CsvHasHeaderAndOneLinePerCell) {
  SweepSpec spec;
  spec.schemes = {"fig2_s2"};
  spec.seeds = {7};
  const Sweep sweep(std::move(spec));
  const auto result = sweep.run(1);
  const std::string csv = result.to_csv();
  // Schema v2: churn_rate and background_load sit between policy and seed.
  EXPECT_EQ(csv.rfind("kind,workload,network,model,nodes,cores,policy,"
                      "churn_rate,background_load,seed,"
                      "units,measured_s,predicted_s,eabs_pct,"
                      "max_abs_erel_pct,status,error\n",
                      0),
            0u);
  size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 1u + result.cells.size());
}

TEST(SweepResult, JsonCarriesCellsAndMarginals) {
  SweepSpec spec;
  spec.schemes = {"mk1"};
  spec.networks = {topo::NetworkTech::kGigabitEthernet,
                   topo::NetworkTech::kMyrinet2000};
  const auto result = Sweep(std::move(spec)).run(1);
  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_FALSE(result.marginals.empty());
  const std::string json = result.to_json();
  EXPECT_EQ(json.rfind("{\n\"cells\": [\n", 0), 0u);
  EXPECT_NE(json.find("\n\"marginals\": [\n"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 3), "\n}\n");
  const auto count = [&json](const std::string& needle) {
    size_t n = 0;
    for (size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1))
      ++n;
    return n;
  };
  // One object per cell and per marginal, in the CSV's column order.
  EXPECT_EQ(count("{\"kind\": \"scheme\", \"workload\": \"mk1\""), 2u);
  EXPECT_EQ(count("{\"axis\": "), result.marginals.size());
  EXPECT_EQ(count("\"network\": \"gige\""), 1u);
  EXPECT_EQ(count("\"network\": \"myrinet\""), 1u);
  // Numbers are bare, status words quoted.
  EXPECT_EQ(count("\"nodes\": 16, "), 2u);
  EXPECT_EQ(count("\"status\": \"ok\""), 2u);
}

TEST(Sweep, GeneratorCellsExpandWithTheCellSeed) {
  // A generator entry is expanded per cell with that cell's seed and then
  // runs exactly as the same graph given as a static scheme would; the
  // cluster grows from the 4-node shape to fit the generated nodes.
  const std::string entry = "random:nodes=12,comms=20";
  SweepSpec spec;
  spec.schemes = {entry};
  spec.shapes = {{4, 2}};
  spec.seeds = {1, 2};
  const auto result = Sweep(std::move(spec)).run(1);
  ASSERT_EQ(result.cells.size(), 2u);
  const auto gen = graph::parse_generator_spec(entry);
  for (const auto& cell : result.cells) {
    SCOPED_TRACE(cell.seed);
    ASSERT_TRUE(cell.ok) << cell.error;
    ResolvedWorkload fixed;
    fixed.key = entry;
    fixed.scheme = std::make_shared<const graph::CommGraph>(
        graph::generate_scheme(gen, cell.seed));
    CellJob job;
    job.workload = &fixed;
    job.tech = topo::NetworkTech::kGigabitEthernet;
    job.model = "network";
    job.shape = {4, 2};
    job.seed = cell.seed;
    const SweepCell reference = run_cell(job);
    ASSERT_TRUE(reference.ok) << reference.error;
    EXPECT_EQ(cell.units, fixed.scheme->size());
    EXPECT_EQ(cell.nodes, std::max(4, fixed.scheme->num_nodes()));
    EXPECT_GT(cell.nodes, 4);
    EXPECT_EQ(cell.units, reference.units);
    EXPECT_EQ(cell.nodes, reference.nodes);
    EXPECT_EQ(cell.measured_s, reference.measured_s);
    EXPECT_EQ(cell.predicted_s, reference.predicted_s);
    EXPECT_EQ(cell.eabs_pct, reference.eabs_pct);
  }
  EXPECT_EQ(result.cells[0].seed, 1u);
  EXPECT_EQ(result.cells[1].seed, 2u);
}

}  // namespace
}  // namespace bwshare::eval
