#include "eval/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <fstream>
#include <memory>
#include <string>

#include "models/registry.hpp"
#include "stats/descriptive.hpp"
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

/// A cell's point on every axis, as one comparable line.
std::string identity(const std::string& kind, const std::string& workload,
                     const std::string& network, const std::string& model,
                     int nodes, int cores, const std::string& policy,
                     double churn, double background, uint64_t seed) {
  return strformat("%s %s %s %s %dx%d %s %g %g %llu", kind.c_str(),
                   workload.c_str(), network.c_str(), model.c_str(), nodes,
                   cores, policy.c_str(), churn, background,
                   static_cast<unsigned long long>(seed));
}

std::string identity(const SweepCell& c) {
  return identity(c.kind, c.workload, c.network, c.model, c.nodes, c.cores,
                  c.policy, c.churn_rate, c.background_load, c.seed);
}

/// The identity of the cell a job runs: the model resolved by name, and a
/// scheme's cluster grown to fit the scheme (generated with the job's seed).
std::string expected_identity(const ResolvedWorkload& w, topo::NetworkTech tech,
                              const std::string& model, SweepShape shape,
                              sim::SchedulingPolicy policy, double churn,
                              double background, uint64_t seed) {
  const std::string model_name = model == "network"
                                     ? models::model_for(tech)->name()
                                     : models::make_model(model)->name();
  if (w.is_trace()) {
    return identity("trace", w.key, network_name(tech), model_name,
                    shape.nodes, shape.cores, sim::to_string(policy), churn,
                    background, seed);
  }
  const int scheme_nodes =
      w.generator ? graph::generate_scheme(*w.generator, seed).num_nodes()
                  : w.scheme->num_nodes();
  return identity("scheme", w.key, network_name(tech), model_name,
                  std::max(shape.nodes, scheme_nodes), shape.cores, "-", 0.0,
                  0.0, seed);
}

/// Sweep::run's marginal rows as its spec-order lists built them: workloads,
/// networks, models (resolved names; read off the cells when "network" is
/// listed), shapes read off the cells, then policy, churn and background
/// when traces are listed, then seeds. Repeated values make one row.
std::vector<SweepMarginal> spec_order_marginals(
    const SweepSpec& spec, const std::vector<SweepCell>& cells) {
  std::vector<SweepMarginal> out;
  const auto add = [&](const std::string& axis,
                       const std::vector<std::string>& values,
                       auto&& cell_value) {
    std::vector<std::string> done;
    for (const auto& value : values) {
      if (std::find(done.begin(), done.end(), value) != done.end()) continue;
      done.push_back(value);
      stats::Accumulator acc;
      for (const auto& cell : cells) {
        if (cell.ok && cell_value(cell) == value) acc.add(cell.eabs_pct);
      }
      if (acc.count() == 0) continue;
      out.push_back({axis, value, acc.count(), acc.mean(), acc.max()});
    }
  };
  std::vector<std::string> workloads = spec.schemes;
  workloads.insert(workloads.end(), spec.traces.begin(), spec.traces.end());
  add("workload", workloads, [](const SweepCell& c) { return c.workload; });
  std::vector<std::string> networks;
  for (const auto tech : spec.networks) networks.push_back(network_name(tech));
  add("network", networks, [](const SweepCell& c) { return c.network; });
  std::vector<std::string> model_names;
  if (std::find(spec.models.begin(), spec.models.end(), "network") !=
      spec.models.end()) {
    for (const auto& cell : cells) {
      if (!cell.model.empty()) model_names.push_back(cell.model);
    }
  } else {
    for (const auto& name : spec.models) {
      model_names.push_back(models::make_model(name)->name());
    }
  }
  add("model", model_names, [](const SweepCell& c) { return c.model; });
  const auto shape_of = [](const SweepCell& c) {
    return strformat("%dx%d", c.nodes, c.cores);
  };
  std::vector<std::string> shapes;
  for (const auto& cell : cells) shapes.push_back(shape_of(cell));
  add("shape", shapes, shape_of);
  if (!spec.traces.empty()) {
    std::vector<std::string> policies;
    for (const auto p : spec.policies) policies.push_back(sim::to_string(p));
    add("policy", policies, [](const SweepCell& c) { return c.policy; });
    std::vector<std::string> churn;
    for (const double r : spec.churn_rates) churn.push_back(strformat("%g", r));
    add("churn_rate", churn, [](const SweepCell& c) {
      return c.kind == "trace" ? strformat("%g", c.churn_rate)
                               : std::string("-");
    });
    std::vector<std::string> loads;
    for (const double r : spec.background_loads) {
      loads.push_back(strformat("%g", r));
    }
    add("background_load", loads, [](const SweepCell& c) {
      return c.kind == "trace" ? strformat("%g", c.background_load)
                               : std::string("-");
    });
  }
  std::vector<std::string> seeds;
  for (const auto s : spec.seeds) {
    seeds.push_back(strformat("%llu", static_cast<unsigned long long>(s)));
  }
  add("seed", seeds, [](const SweepCell& c) {
    return strformat("%llu", static_cast<unsigned long long>(c.seed));
  });
  return out;
}

uint64_t bits(double v) { return std::bit_cast<uint64_t>(v); }

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

TEST(Sweep, MyrinetCellOverTheStateSetBudgetIsAnError) {
  // The Myrinet model's conflict components here have more state sets than
  // its budget; penalties from a truncated enumeration would be wrong by
  // orders of magnitude, so the cell errors instead of reading ok.
  SweepSpec spec;
  spec.schemes = {"random:nodes=12,comms=96"};
  spec.networks = {topo::NetworkTech::kMyrinet2000};
  spec.seeds = {1};
  const auto result = Sweep(std::move(spec)).run(1);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_FALSE(result.cells[0].ok);
  EXPECT_NE(result.cells[0].error.find("has more than 1048576 state sets"),
            std::string::npos)
      << result.cells[0].error;
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
    const SweepCell reference = run_cell_detailed(job).cell;
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

TEST(Sweep, CellsComeInTheDocumentedOrder) {
  SweepSpec spec;
  spec.schemes = {"mk1", "ring:nodes=5"};
  spec.traces = {write_temp_trace("sweep_order_a.trace"),
                 write_temp_trace("sweep_order_b.trace")};
  spec.networks = {topo::NetworkTech::kGigabitEthernet,
                   topo::NetworkTech::kMyrinet2000};
  spec.models = {"network", "loggp"};
  spec.shapes = {{2, 2}, {4, 1}};
  spec.policies = {sim::SchedulingPolicy::kRoundRobinNode,
                   sim::SchedulingPolicy::kRandom};
  spec.churn_rates = {0.0, 20.0};
  spec.background_loads = {0.0, 100.0};
  spec.seeds = {1, 2};

  // The grid's documented order, written out: workloads (schemes first,
  // then traces, each in listed order) x networks x models x shapes
  // [x policies x churn_rates x background_loads, trace cells only] x seeds.
  std::vector<ResolvedWorkload> workloads;
  for (const auto& e : spec.schemes) {
    workloads.push_back(resolve_scheme_workload(e));
  }
  for (const auto& e : spec.traces) {
    workloads.push_back(resolve_trace_workload(e));
  }
  std::vector<std::string> want;
  for (const auto& w : workloads) {
    for (const auto tech : spec.networks) {
      for (const auto& model : spec.models) {
        for (const auto& shape : spec.shapes) {
          if (!w.is_trace()) {
            for (const auto seed : spec.seeds) {
              want.push_back(expected_identity(
                  w, tech, model, shape,
                  sim::SchedulingPolicy::kRoundRobinNode, 0.0, 0.0, seed));
            }
            continue;
          }
          for (const auto policy : spec.policies) {
            for (const double churn : spec.churn_rates) {
              for (const double background : spec.background_loads) {
                for (const auto seed : spec.seeds) {
                  want.push_back(expected_identity(w, tech, model, shape,
                                                   policy, churn, background,
                                                   seed));
                }
              }
            }
          }
        }
      }
    }
  }

  const Sweep sweep(spec);
  EXPECT_EQ(sweep.num_jobs(), want.size());
  const auto result = sweep.run(2);
  ASSERT_EQ(result.cells.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(identity(result.cells[i]), want[i]) << "cell " << i;
  }
}

TEST(Sweep, MarginalsFollowTheSpecOrder) {
  SweepSpec mixed;
  mixed.schemes = {"mk1", "random:nodes=6,comms=8", "mk1"};
  mixed.traces = {write_temp_trace("sweep_marginals.trace")};
  mixed.networks = {topo::NetworkTech::kGigabitEthernet,
                    topo::NetworkTech::kMyrinet2000,
                    topo::NetworkTech::kGigabitEthernet};
  mixed.models = {"network", "gige"};
  // mk1 grows from two nodes to eight; the 4-task trace does not fit 2x1,
  // so those trace cells error.
  mixed.shapes = {{2, 1}, {12, 1}};
  mixed.policies = {sim::SchedulingPolicy::kRoundRobinNode,
                    sim::SchedulingPolicy::kRandom,
                    sim::SchedulingPolicy::kRoundRobinNode};
  mixed.churn_rates = {0.0, 30.0, 30.0};
  mixed.background_loads = {200.0, 0.0};
  mixed.seeds = {3, 1, 3};

  SweepSpec named;  // explicit models only, one of them repeated
  named.schemes = {"fig2_s4", "mk2"};
  named.networks = {topo::NetworkTech::kMyrinet2000,
                    topo::NetworkTech::kGigabitEthernet};
  named.models = {"loggp", "gige", "loggp"};
  named.shapes = {{16, 2}, {4, 2}};
  named.seeds = {2, 1};

  const auto check = [](const SweepSpec& spec) {
    auto result = Sweep(spec).run(2);
    const auto want = spec_order_marginals(spec, result.cells);
    EXPECT_EQ(result.marginals.size(), want.size());
    for (size_t i = 0; i < std::min(want.size(), result.marginals.size());
         ++i) {
      const SweepMarginal& got = result.marginals[i];
      SCOPED_TRACE(::testing::Message() << "row " << i << ": " << want[i].axis
                                        << " " << want[i].value);
      EXPECT_EQ(got.axis, want[i].axis);
      EXPECT_EQ(got.value, want[i].value);
      EXPECT_EQ(got.cells, want[i].cells);
      EXPECT_EQ(bits(got.mean_eabs_pct), bits(want[i].mean_eabs_pct));
      EXPECT_EQ(bits(got.max_eabs_pct), bits(want[i].max_eabs_pct));
    }
    return result;
  };
  const auto mixed_result = check(mixed);
  EXPECT_GT(mixed_result.num_errors, 0u);
  EXPECT_LT(mixed_result.num_errors, mixed_result.cells.size());
  const auto grown = std::find_if(
      mixed_result.cells.begin(), mixed_result.cells.end(),
      [](const SweepCell& c) { return c.workload == "mk1" && c.nodes == 8; });
  EXPECT_NE(grown, mixed_result.cells.end());
  EXPECT_EQ(check(named).num_errors, 0u);
}

}  // namespace
}  // namespace bwshare::eval
