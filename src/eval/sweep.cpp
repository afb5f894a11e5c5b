#include "eval/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
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

Sweep::Sweep(SweepSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  for (const auto& entry : spec_.schemes) {
    scheme_workloads_.push_back(resolve_scheme_workload(entry));
  }
  for (const auto& entry : spec_.traces) {
    trace_workloads_.push_back(resolve_trace_workload(entry));
  }
}

size_t Sweep::num_jobs() const {
  const size_t base = spec_.networks.size() * spec_.models.size() *
                      spec_.shapes.size() * spec_.seeds.size();
  // churn_rates/background_loads cross trace cells only: a scheme cell is a
  // static solve with no replay for a scenario to act on.
  return scheme_workloads_.size() * base +
         trace_workloads_.size() * base * spec_.policies.size() *
             spec_.churn_rates.size() * spec_.background_loads.size();
}

namespace {

models::PenaltyModelPtr resolve_model(const std::string& name,
                                      topo::NetworkTech tech) {
  return name == "network" ? models::model_for(tech)
                           : models::make_model(name);
}

}  // namespace

SweepCell run_cell(const CellJob& job) {
  return run_cell_detailed(job).cell;
}

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
      // Dynamic-cluster scripts are drawn from the cell's seed alone (the
      // generators salt churn vs background internally), so the cell is
      // reproducible independent of execution order or thread count.
      sim::Scenario scenario;
      if (job.churn > 0.0) {
        graph::ChurnSpec cs;
        cs.rate = job.churn;
        cs.horizon = 1.0;
        cs.nodes = nodes;
        scenario.churn = graph::generate_churn(cs, job.seed);
      }
      if (job.background > 0.0) {
        graph::BackgroundSpec bs;
        bs.rate = job.background;
        bs.horizon = 1.0;
        bs.nodes = nodes;
        scenario.background = graph::generate_background(bs, job.seed);
      }
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
  // Expand the grid in its documented order: workloads (schemes first, then
  // traces, each in listed order) x networks x models x shapes
  // [x policies x churn_rates x background_loads, trace cells only] x seeds.
  std::vector<CellJob> jobs;
  jobs.reserve(num_jobs());
  for (const auto& w : scheme_workloads_) {
    for (const auto tech : spec_.networks) {
      for (const auto& model : spec_.models) {
        for (const auto& shape : spec_.shapes) {
          for (const auto seed : spec_.seeds) {
            jobs.push_back({&w, tech, model, shape,
                            sim::SchedulingPolicy::kRoundRobinNode, 0.0, 0.0,
                            seed});
          }
        }
      }
    }
  }
  for (const auto& w : trace_workloads_) {
    for (const auto tech : spec_.networks) {
      for (const auto& model : spec_.models) {
        for (const auto& shape : spec_.shapes) {
          for (const auto policy : spec_.policies) {
            for (const double churn : spec_.churn_rates) {
              for (const double background : spec_.background_loads) {
                for (const auto seed : spec_.seeds) {
                  jobs.push_back({&w, tech, model, shape, policy, churn,
                                  background, seed});
                }
              }
            }
          }
        }
      }
    }
  }

  SweepResult result;
  result.cells.resize(jobs.size());

  const auto run_job = [&jobs, &result](int index) {
    result.cells[static_cast<size_t>(index)] =
        run_cell(jobs[static_cast<size_t>(index)]);
  };

  util::parallel_for(threads, static_cast<int>(jobs.size()), run_job);

  for (const auto& cell : result.cells) {
    if (!cell.ok) ++result.num_errors;
  }

  // Marginal summaries, serially and in spec order (deterministic).
  const auto add_marginals = [&result](const std::string& axis,
                                       const std::vector<std::string>& values,
                                       auto&& cell_value) {
    std::vector<std::string> done;  // a repeated axis value ("--seeds 1,1")
                                    // must not emit a duplicate row
    for (const auto& value : values) {
      if (std::find(done.begin(), done.end(), value) != done.end()) continue;
      done.push_back(value);
      stats::Accumulator acc;
      for (const auto& cell : result.cells) {
        if (cell.ok && cell_value(cell) == value) acc.add(cell.eabs_pct);
      }
      if (acc.count() == 0) continue;
      result.marginals.push_back(
          {axis, value, acc.count(), acc.mean(), acc.max()});
    }
  };
  std::vector<std::string> workload_keys;
  for (const auto& w : scheme_workloads_) workload_keys.push_back(w.key);
  for (const auto& w : trace_workloads_) workload_keys.push_back(w.key);
  add_marginals("workload", workload_keys,
                [](const SweepCell& c) { return c.workload; });
  std::vector<std::string> network_names;
  for (const auto tech : spec_.networks) {
    network_names.push_back(short_tech_name(tech));
  }
  add_marginals("network", network_names,
                [](const SweepCell& c) { return c.network; });
  std::vector<std::string> model_names;
  for (const auto& name : spec_.models) {
    model_names.push_back(name == "network"
                              ? "network"
                              : models::make_model(name)->name());
  }
  if (std::find(spec_.models.begin(), spec_.models.end(), "network") !=
      spec_.models.end()) {
    // "network" resolves per cell; aggregate it over the resolved names.
    model_names.clear();
    std::map<std::string, bool> seen;
    for (const auto& cell : result.cells) {
      if (!cell.model.empty() && !seen[cell.model]) {
        seen[cell.model] = true;
        model_names.push_back(cell.model);
      }
    }
  }
  add_marginals("model", model_names,
                [](const SweepCell& c) { return c.model; });
  // Shapes aggregate over the *effective* cluster (a scheme needing more
  // nodes than the shape grows the cluster), so collect values from cells.
  std::vector<std::string> shape_names;
  for (const auto& cell : result.cells) {
    const std::string name = strformat("%dx%d", cell.nodes, cell.cores);
    if (std::find(shape_names.begin(), shape_names.end(), name) ==
        shape_names.end()) {
      shape_names.push_back(name);
    }
  }
  add_marginals("shape", shape_names, [](const SweepCell& c) {
    return strformat("%dx%d", c.nodes, c.cores);
  });
  if (!trace_workloads_.empty()) {
    std::vector<std::string> policy_names;
    for (const auto policy : spec_.policies) {
      policy_names.push_back(sim::to_string(policy));
    }
    add_marginals("policy", policy_names,
                  [](const SweepCell& c) { return c.policy; });
    // The dynamic-cluster axes, like policy, only exist on trace cells;
    // scheme cells (always churn 0 / load 0) would otherwise pollute the
    // zero rows, so marginals filter on kind.
    std::vector<std::string> churn_names;
    for (const double r : spec_.churn_rates) {
      churn_names.push_back(strformat("%g", r));
    }
    add_marginals("churn_rate", churn_names, [](const SweepCell& c) {
      return c.kind == "trace" ? strformat("%g", c.churn_rate)
                               : std::string("-");
    });
    std::vector<std::string> load_names;
    for (const double r : spec_.background_loads) {
      load_names.push_back(strformat("%g", r));
    }
    add_marginals("background_load", load_names, [](const SweepCell& c) {
      return c.kind == "trace" ? strformat("%g", c.background_load)
                               : std::string("-");
    });
  }
  std::vector<std::string> seed_names;
  for (const auto seed : spec_.seeds) {
    seed_names.push_back(
        strformat("%llu", static_cast<unsigned long long>(seed)));
  }
  add_marginals("seed", seed_names, [](const SweepCell& c) {
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
