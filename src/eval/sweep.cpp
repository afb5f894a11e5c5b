#include "eval/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "eval/experiment.hpp"
#include "graph/scheme_parser.hpp"
#include "graph/schemes.hpp"
#include "models/registry.hpp"
#include "sim/trace_io.hpp"
#include "stats/descriptive.hpp"
#include "topo/cluster.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace bwshare::eval {

namespace {

// Short interconnect names for CSV cells ("GigabitEthernet" is noisy in a
// 24-row grid and the CLI already accepts these as axis input).
std::string short_tech_name(topo::NetworkTech tech) {
  switch (tech) {
    case topo::NetworkTech::kGigabitEthernet: return "gige";
    case topo::NetworkTech::kMyrinet2000: return "myrinet";
    case topo::NetworkTech::kInfinibandInfinihost3: return "ib";
  }
  return "?";
}

// Built-in paper schemes, with an optional "@SIZE" message-size override
// ("mk1@8M"); without one each scheme keeps its paper-default size.
graph::CommGraph builtin_scheme(const std::string& entry) {
  std::string name = entry;
  std::optional<double> bytes;
  const auto at = entry.find('@');
  if (at != std::string::npos) {
    name = entry.substr(0, at);
    bytes = parse_size(entry.substr(at + 1));
  }
  if (name == "fig4") return graph::schemes::fig4_scheme(bytes.value_or(4e6));
  if (name == "fig5") return graph::schemes::fig5_scheme(bytes.value_or(20e6));
  if (name == "mk1") return graph::schemes::mk1_tree(bytes.value_or(4e6));
  if (name == "mk2") return graph::schemes::mk2_complete(bytes.value_or(4e6));
  if (starts_with(name, "fig2_s") && name.size() == 7 && name[6] >= '1' &&
      name[6] <= '6') {
    return graph::schemes::fig2_scheme(name[6] - '0', bytes.value_or(20e6));
  }
  BWS_THROW("unknown scheme '" + name +
            "' (built-ins: fig2_s1..fig2_s6, fig4, fig5, mk1, mk2, each "
            "with an optional @SIZE like mk1@8M; or a path ending in "
            ".scheme, or a generator spec 'family:...')");
}

}  // namespace

SweepShape parse_sweep_shape(const std::string& text) {
  const auto x = text.find('x');
  SweepShape shape;
  BWS_CHECK(x != std::string::npos,
            "shape '" + text + "' must look like <nodes>x<cores>, e.g. 16x2");
  const std::string nodes = text.substr(0, x);
  const std::string cores = text.substr(x + 1);
  // Range-checked on the long before the int cast, so 2^32+1 is rejected
  // instead of silently wrapping into a tiny cluster.
  long n = 0;
  BWS_CHECK(try_parse_long(nodes, n, 1, kMaxCount) == ParseIntStatus::kOk,
            "shape '" + text + "': bad node count '" + nodes + "'");
  shape.nodes = static_cast<int>(n);
  long c = 0;
  BWS_CHECK(try_parse_long(cores, c, 1, kMaxCount) == ParseIntStatus::kOk,
            "shape '" + text + "': bad core count '" + cores + "'");
  shape.cores = static_cast<int>(c);
  return shape;
}

void SweepSpec::validate() const {
  BWS_CHECK(!schemes.empty() || !traces.empty(),
            "sweep: at least one scheme or trace workload is required");
  validate_axes();
}

void SweepSpec::validate_axes() const {
  BWS_CHECK(!networks.empty(), "sweep: networks axis must not be empty");
  BWS_CHECK(!models.empty(), "sweep: models axis must not be empty");
  BWS_CHECK(!shapes.empty(), "sweep: shapes axis must not be empty");
  BWS_CHECK(!policies.empty(), "sweep: policies axis must not be empty");
  BWS_CHECK(!churn_rates.empty(), "sweep: churn_rates axis must not be empty");
  BWS_CHECK(!background_loads.empty(),
            "sweep: background_loads axis must not be empty");
  for (const double r : churn_rates) {
    BWS_CHECK(r >= 0.0 && std::isfinite(r),
              strformat("sweep: churn rate must be finite and >= 0, got %g",
                        r));
  }
  for (const double r : background_loads) {
    BWS_CHECK(r >= 0.0 && std::isfinite(r),
              strformat("sweep: background load must be finite and >= 0, "
                        "got %g",
                        r));
  }
  BWS_CHECK(!seeds.empty(), "sweep: seeds axis must not be empty");
  for (const auto& shape : shapes) {
    BWS_CHECK(shape.nodes >= 1 && shape.cores >= 1,
              strformat("sweep: invalid shape %dx%d", shape.nodes,
                        shape.cores));
  }
  for (const auto& name : models) {
    if (name == "network") continue;
    // Throws with the registry's own "unknown model" message on typos.
    (void)models::make_model(name);
  }
}

ResolvedWorkload resolve_scheme_workload(const std::string& entry) {
  ResolvedWorkload w;
  w.key = entry;
  if (entry.find(':') != std::string::npos) {
    w.generator = graph::parse_generator_spec(entry);
  } else if (entry.ends_with(".scheme")) {
    w.scheme = std::make_shared<const graph::CommGraph>(
        graph::parse_scheme_file(entry).graph);
  } else {
    w.scheme = std::make_shared<const graph::CommGraph>(builtin_scheme(entry));
  }
  return w;
}

ResolvedWorkload resolve_trace_workload(const std::string& entry) {
  ResolvedWorkload w;
  w.key = entry;
  auto trace = sim::read_trace_file(entry);
  trace.validate();
  w.trace = std::make_shared<const sim::AppTrace>(std::move(trace));
  return w;
}

std::vector<ResolvedWorkload> resolve_workloads(const SweepSpec& spec) {
  spec.validate();
  std::vector<ResolvedWorkload> workloads;
  for (const auto& entry : spec.schemes) {
    workloads.push_back(resolve_scheme_workload(entry));
  }
  for (const auto& entry : spec.traces) {
    workloads.push_back(resolve_trace_workload(entry));
  }
  return workloads;
}

std::vector<CellJob> expand_cells(
    const SweepSpec& grid, std::span<const ResolvedWorkload> workloads) {
  // churn_rates/background_loads cross trace cells only: a scheme cell is a
  // static solve with no replay for a scenario to act on.
  std::vector<CellJob> cells;
  for (const bool traces : {false, true}) {
    for (const auto& w : workloads) {
      if (w.is_trace() != traces) continue;
      for (const auto tech : grid.networks) {
        for (const auto& model : grid.models) {
          for (const auto& shape : grid.shapes) {
            if (!traces) {
              cells.push_back({&w, tech, model, shape,
                               sim::SchedulingPolicy::kRoundRobinNode, 0.0,
                               0.0, 0});
              continue;
            }
            for (const auto policy : grid.policies) {
              for (const double churn : grid.churn_rates) {
                for (const double background : grid.background_loads) {
                  cells.push_back({&w, tech, model, shape, policy, churn,
                                   background, 0});
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

sim::Scenario cell_scenario(double churn, double background, int nodes,
                            uint64_t seed) {
  sim::Scenario scenario;
  if (churn > 0.0) {
    graph::ChurnSpec spec;
    spec.rate = churn;
    spec.nodes = nodes;
    scenario.churn = graph::generate_churn(spec, seed);
  }
  if (background > 0.0) {
    graph::BackgroundSpec spec;
    spec.rate = background;
    spec.nodes = nodes;
    scenario.background = graph::generate_background(spec, seed);
  }
  return scenario;
}

Sweep::Sweep(SweepSpec spec)
    : spec_(std::move(spec)), workloads_(resolve_workloads(spec_)) {}

size_t Sweep::num_jobs() const {
  return expand_cells(spec_, workloads_).size() * spec_.seeds.size();
}

namespace {

models::PenaltyModelPtr resolve_model(const std::string& name,
                                      topo::NetworkTech tech) {
  return name == "network" ? models::model_for(tech)
                           : models::make_model(name);
}

}  // namespace

CellOutcome run_cell_detailed(const CellJob& job, const CellHooks& hooks) {
  const bool is_trace = job.workload->is_trace();
  CellOutcome out;
  SweepCell& cell = out.cell;
  cell.kind = is_trace ? "trace" : "scheme";
  cell.workload = job.workload->key;
  cell.network = short_tech_name(job.tech);
  cell.policy = is_trace ? sim::to_string(job.policy) : "-";
  cell.churn_rate = job.churn;
  cell.background_load = job.background;
  cell.seed = job.seed;
  try {
    const auto model = resolve_model(job.model, job.tech);
    cell.model = model->name();
    // Materialize the scheme first: generated workloads may need more
    // nodes than the shape provides, and (like `bwshare_cli scheme`) the
    // cluster grows to fit rather than erroring the cell.
    graph::CommGraph generated;
    const graph::CommGraph* scheme = nullptr;
    if (!is_trace) {
      if (job.workload->generator) {
        generated = graph::generate_scheme(*job.workload->generator,
                                           job.seed);
        scheme = &generated;
      } else {
        scheme = job.workload->scheme.get();
      }
    }
    const int nodes =
        scheme ? std::max(job.shape.nodes, scheme->num_nodes())
               : job.shape.nodes;
    cell.nodes = nodes;
    cell.cores = job.shape.cores;
    const auto cluster =
        topo::ClusterSpec::uniform("sweep", nodes, job.shape.cores,
                                   topo::calibration_for(job.tech));
    if (is_trace) {
      const sim::Scenario scenario =
          cell_scenario(job.churn, job.background, nodes, job.seed);
      ReplayConfig replay;
      replay.measured.solve_memo = hooks.measured_memo;
      replay.predicted.solve_memo = hooks.predicted_memo;
      auto detailed =
          compare_application_detailed(*job.workload->trace, cluster,
                                       job.policy, *model, job.seed,
                                       scenario, replay);
      const auto& cmp = detailed.summary;
      cell.units = job.workload->trace->num_tasks();
      cell.measured_s = cmp.measured_makespan;
      cell.predicted_s = cmp.predicted_makespan;
      cell.eabs_pct = cmp.mean_eabs;
      for (const auto& task : cmp.tasks) {
        cell.max_abs_erel_pct = std::max(cell.max_abs_erel_pct, task.eabs);
      }
      out.placement = cmp.placement;
      out.measured = std::move(detailed.measured);
      out.predicted = std::move(detailed.predicted);
    } else {
      const auto cmp = compare_scheme(*scheme, cluster, *model);
      cell.units = scheme->size();
      for (const double t : cmp.measured) cell.measured_s += t;
      for (const double t : cmp.predicted) cell.predicted_s += t;
      cell.eabs_pct = cmp.eabs;
      for (const double e : cmp.erel) {
        cell.max_abs_erel_pct = std::max(cell.max_abs_erel_pct,
                                         std::fabs(e));
      }
    }
    cell.ok = true;
  } catch (const std::exception& e) {
    cell.ok = false;
    cell.error = e.what();
    out.placement = sim::Placement();
    out.measured.reset();
    out.predicted.reset();
  }
  return out;
}

SweepResult Sweep::run(int threads) const {
  // Each cell runs once per seed, the seed axis innermost.
  const std::vector<CellJob> cells = expand_cells(spec_, workloads_);
  const size_t seeds = spec_.seeds.size();
  SweepResult result;
  result.cells.resize(cells.size() * seeds);
  util::parallel_for(
      threads, static_cast<int>(result.cells.size()), [&](int index) {
        const auto i = static_cast<size_t>(index);
        CellJob job = cells[i / seeds];
        job.seed = spec_.seeds[i % seeds];
        result.cells[i] = run_cell_detailed(job).cell;
      });

  for (const auto& cell : result.cells) {
    if (!cell.ok) ++result.num_errors;
  }

  // Marginal summaries, serially (deterministic). Every axis is nested in
  // spec order, so the cells first show each axis's values in spec order;
  // a repeated value ("--seeds 1,1") makes one row. Policy and the
  // dynamic-cluster axes exist on trace cells only.
  const auto add_marginals = [&result](const std::string& axis,
                                       bool trace_cells_only,
                                       auto&& cell_value) {
    std::vector<std::string> values;
    std::vector<stats::Accumulator> accs;
    for (const auto& cell : result.cells) {
      if (trace_cells_only && cell.kind != "trace") continue;
      std::string value = cell_value(cell);
      const auto at = static_cast<size_t>(
          std::find(values.begin(), values.end(), value) - values.begin());
      if (at == values.size()) {
        values.push_back(std::move(value));
        accs.emplace_back();
      }
      if (cell.ok) accs[at].add(cell.eabs_pct);
    }
    for (size_t i = 0; i < values.size(); ++i) {
      if (accs[i].count() == 0) continue;
      result.marginals.push_back({axis, values[i], accs[i].count(),
                                  accs[i].mean(), accs[i].max()});
    }
  };
  add_marginals("workload", false,
                [](const SweepCell& c) { return c.workload; });
  add_marginals("network", false,
                [](const SweepCell& c) { return c.network; });
  // Resolved names: "network" aggregates under the model of each cell's
  // interconnect.
  add_marginals("model", false, [](const SweepCell& c) { return c.model; });
  // The effective cluster: a scheme needing more nodes than the shape grows
  // it.
  add_marginals("shape", false, [](const SweepCell& c) {
    return strformat("%dx%d", c.nodes, c.cores);
  });
  add_marginals("policy", true, [](const SweepCell& c) { return c.policy; });
  add_marginals("churn_rate", true, [](const SweepCell& c) {
    return strformat("%g", c.churn_rate);
  });
  add_marginals("background_load", true, [](const SweepCell& c) {
    return strformat("%g", c.background_load);
  });
  add_marginals("seed", false, [](const SweepCell& c) {
    return strformat("%llu", static_cast<unsigned long long>(c.seed));
  });

  return result;
}

namespace {

using util::format_fixed;

TextTable cells_table(const std::vector<SweepCell>& cells) {
  // Schema v2: churn_rate/background_load joined the per-cell columns when
  // the dynamic-cluster axes landed (docs/EXPERIMENTS.md).
  TextTable csv({"kind", "workload", "network", "model", "nodes", "cores",
                 "policy", "churn_rate", "background_load", "seed", "units",
                 "measured_s", "predicted_s", "eabs_pct", "max_abs_erel_pct",
                 "status", "error"});
  for (const auto& cell : cells) {
    csv.add_row({cell.kind, cell.workload, cell.network, cell.model,
                 strformat("%d", cell.nodes), strformat("%d", cell.cores),
                 cell.policy, format_fixed(cell.churn_rate, 3),
                 format_fixed(cell.background_load, 3),
                 strformat("%llu", static_cast<unsigned long long>(cell.seed)),
                 strformat("%d", cell.units),
                 format_fixed(cell.measured_s, 6),
                 format_fixed(cell.predicted_s, 6),
                 format_fixed(cell.eabs_pct, 3),
                 format_fixed(cell.max_abs_erel_pct, 3),
                 cell.ok ? "ok" : "error", cell.error});
  }
  return csv;
}

TextTable marginals_table(const std::vector<SweepMarginal>& marginals) {
  TextTable csv(
      {"axis", "value", "cells", "mean_eabs_pct", "max_eabs_pct"});
  for (const auto& m : marginals) {
    csv.add_row({m.axis, m.value, strformat("%zu", m.cells),
                 format_fixed(m.mean_eabs_pct, 3),
                 format_fixed(m.max_eabs_pct, 3)});
  }
  return csv;
}

}  // namespace

std::string SweepResult::to_csv() const {
  return cells_table(cells).to_csv();
}

std::string SweepResult::to_json() const {
  return "{\n\"cells\": " + util::rows_to_json(cells_table(cells)) +
         ",\n\"marginals\": " + util::rows_to_json(marginals_table(marginals)) +
         "\n}\n";
}

}  // namespace bwshare::eval
