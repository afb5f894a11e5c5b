// bwshare_cli — command-line front end to the paper's simulator.
//
//   bwshare_cli scheme data/fig2_s4.scheme [--network gige] [--model gige]
//       Run a communication scheme through the §IV-B measurement software:
//       substrate penalties vs model penalties, E_rel/E_abs.
//
//   bwshare_cli trace my.trace [--network myrinet] [--schedule RRP]
//               [--nodes 16] [--cores 2]
//       Replay an application trace (sim/trace_io format) under a
//       scheduling policy; prints the per-task and summary reports for the
//       substrate and the interconnect's model.
//
//   bwshare_cli sweep [--schemes mk1,mk2] [--networks gige,myrinet] ...
//       Run a whole measured-vs-predicted campaign grid (eval::Sweep) on a
//       thread pool; axis reference and column glossary in
//       docs/EXPERIMENTS.md.
//
//   bwshare_cli multijob a.trace b.trace [--network gige] [--schedule RRN]
//       Co-schedule several traced jobs on ONE shared cluster
//       (sim::run_multi_job) and report per-job interference.
//
//   bwshare_cli campaign [--rule best-arm] [--objective measured] ...
//       Adaptive Monte-Carlo campaign (eval::Campaign): the sweep axes
//       become candidate arms, replicates are drawn per arm until the
//       stopping rule fires — best arm separated, CIs tight, or hopeless
//       arms cut — instead of running the whole grid to completion.
//
//   bwshare_cli serve [--threads N] [--cache N] [--memo N] [--verify]
//       Prediction-as-a-service daemon (serve::QueryService): JSON-lines
//       queries on stdin, responses on stdout. A blank line flushes the
//       accumulated batch; repeats hit the result cache, near-duplicates
//       warm-start from memoized component solutions (docs/SERVING.md).
//
// The trace and multijob subcommands accept a dynamic-cluster scenario
// (--churn/--background, sim/scenario.hpp): seeded Poisson membership
// events and cross-traffic contending with the replay.
//
// Exit codes: 0 success, 1 runtime failure (including any errored sweep
// cell), 2 usage error (unknown subcommand or flag, missing argument).
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "eval/campaign.hpp"
#include "eval/experiment.hpp"
#include "eval/sweep.hpp"
#include "stats/sequential.hpp"
#include "util/csv.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "graph/scheme_parser.hpp"
#include "models/registry.hpp"
#include "serve/protocol.hpp"
#include "sim/multijob.hpp"
#include "sim/rate_model.hpp"
#include "sim/report.hpp"
#include "sim/scenario.hpp"
#include "sim/trace_io.hpp"
#include "topo/cluster.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bwshare;

int usage(const std::string& prog) {
  std::cerr
      << "usage: " << prog << " <subcommand> [options]\n"
      << "\n"
      << "subcommands:\n"
      << "  scheme <file.scheme>   substrate-vs-model penalty report for one\n"
      << "                         communication scheme (paper figs 4/7)\n"
      << "    --network gige|myrinet|ib  interconnect calibration\n"
      << "                               (default gige, the paper's IBM\n"
      << "                               eServer 326 cluster)\n"
      << "    --model <name>             penalty model: gige, myrinet,\n"
      << "                               infiniband, loggp, kimlee\n"
      << "                               (default: the network's own model)\n"
      << "    --nodes N                  cluster nodes (default max(16,\n"
      << "                               scheme nodes))\n"
      << "    --cores C                  cores per node (default 2, the\n"
      << "                               paper's dual-Opteron nodes)\n"
      << "\n"
      << "  trace <file.trace>     replay an application trace under a\n"
      << "                         scheduling policy (paper figs 8/9)\n"
      << "    --network gige|myrinet|ib  as above (default gige)\n"
      << "    --schedule RRN|RRP|Random  placement policy (default RRN,\n"
      << "                               §VI-A round-robin per node)\n"
      << "    --nodes N --cores C        cluster shape (default 16x2)\n"
      << "    --churn R                  node join/leave/fail events per\n"
      << "                               second of simulated time (default 0)\n"
      << "    --background R             background flows per second\n"
      << "                               contending with the job (default 0)\n"
      << "    --scenario-seed S          seed for the scripted scenario\n"
      << "                               (default 42)\n"
      << "\n"
      << "  multijob <a.trace> <b.trace> [...]\n"
      << "                         co-schedule traced jobs on one shared\n"
      << "                         cluster; per-job interference table\n"
      << "    --network/--schedule/--nodes/--cores/--churn/--background/\n"
      << "    --scenario-seed            as for trace\n"
      << "\n"
      << "  sweep                  run a campaign grid in parallel\n"
      << "                         (docs/EXPERIMENTS.md)\n"
      << "    --schemes a,b,...          built-ins (fig2_s1..fig2_s6, fig4,\n"
      << "                               fig5, mk1, mk2, optional @SIZE as\n"
      << "                               in mk1@8M), .scheme paths, or\n"
      << "                               generator specs family:key=value,...\n"
      << "                               with families ring, hotspot,\n"
      << "                               random, alltoall (default mk1,mk2)\n"
      << "    --traces a,b,...           trace files (default none)\n"
      << "    --networks a,b,...         (default gige,myrinet)\n"
      << "    --models a,b,...           model names or 'network'\n"
      << "                               (default gige,myrinet)\n"
      << "    --shapes NxC,...           cluster shapes (default 16x2)\n"
      << "    --schedules p1,p2,...      trace-cell policies (default RRN)\n"
      << "    --churn-rates r1,r2,...    membership-churn axis, events/s on\n"
      << "                               trace cells (default 0)\n"
      << "    --background-loads r1,...  background-flow axis, flows/s on\n"
      << "                               trace cells (default 0)\n"
      << "    --seeds s1,s2,...          (default 1,2,3)\n"
      << "    --threads N                threads, the calling one included\n"
      << "                               (default 0 = hardware)\n"
      << "    --csv PATH --json PATH     write per-cell results\n"
      << "    --marginals                print per-axis-value summaries\n"
      << "\n"
      << "  campaign               adaptive Monte-Carlo campaign with early\n"
      << "                         stopping (docs/EXPERIMENTS.md Campaigns)\n"
      << "    --schemes/--traces/--networks/--models/--shapes/--schedules/\n"
      << "    --churn-rates/--background-loads\n"
      << "                               arm axes, exactly as for sweep\n"
      << "                               (no --seeds: replicate seeds come\n"
      << "                               from the campaign's own stream)\n"
      << "    --objective measured|predicted|eabs\n"
      << "                               what arms compete on, lower wins\n"
      << "                               (default measured)\n"
      << "    --rule ci-width|best-arm|cutoff\n"
      << "                               stopping rule (default best-arm)\n"
      << "    --tolerance T              ci-width relative half-width target\n"
      << "                               (default 0.05)\n"
      << "    --confidence C             per-arm bootstrap CI level\n"
      << "                               (default 0.95)\n"
      << "    --min-replicates N         warm-up before any verdict\n"
      << "                               (default 8)\n"
      << "    --max-replicates N         per-arm budget (default 256)\n"
      << "    --batch N                  replicates per arm per round\n"
      << "                               (default 8)\n"
      << "    --resamples N              bootstrap resamples (default 400)\n"
      << "    --seed S                   campaign seed (default 42)\n"
      << "    --threads N --csv PATH --json PATH\n"
      << "                               as for sweep\n"
      << "\n"
      << "  serve                  prediction-as-a-service daemon: one flat\n"
      << "                         JSON query per stdin line, one JSON\n"
      << "                         response per line; a blank line flushes\n"
      << "                         the batch, {\"op\":\"stats\"} reports\n"
      << "                         counters (docs/SERVING.md)\n"
      << "    --threads N                threads per batch, the calling one\n"
      << "                               included (default 0 = hardware)\n"
      << "    --cache N                  result-cache capacity in replays\n"
      << "                               (default 64; 0 = serve-through)\n"
      << "    --memo N                   warm-start store capacity in\n"
      << "                               component solutions (default 65536;\n"
      << "                               0 = no cross-query warm-start)\n"
      << "    --verify                   bitwise-verify every warm answer\n"
      << "                               against a cold run (slow; oracle)\n";
  return 2;
}

/// Reject flags the subcommand does not understand; exit code 2.
bool check_flags(const CliArgs& args, const std::string& subcommand,
                 std::initializer_list<std::string_view> allowed) {
  const auto unknown = args.unknown_flags(allowed);
  for (const auto& flag : unknown) {
    std::cerr << args.program() << " " << subcommand << ": unknown option --"
              << flag << "\n";
  }
  return unknown.empty();
}

int run_scheme(const CliArgs& args, const std::string& path) {
  const auto parsed = graph::parse_scheme_file(path);
  const auto tech = topo::network_tech_from_string(args.get("network", "gige"));
  const int nodes = args.get_int_in(
      "nodes", std::max(16, parsed.declared_nodes), 1, kMaxCount);
  const int cores = args.get_int_in("cores", 2, 1, kMaxCount);
  const auto cluster = topo::ClusterSpec::uniform(
      "cli", nodes, cores, topo::calibration_for(tech));

  const std::string model_name = args.get("model", "");
  const auto model = model_name.empty() ? models::model_for(tech)
                                        : models::make_model(model_name);

  const auto cmp = eval::compare_scheme(parsed.graph, cluster, *model);
  std::cout << "scheme \"" << parsed.name << "\" on " << to_string(tech)
            << " with model '" << model->name() << "':\n\n";
  TextTable table({"comm", "arc", "T_m [s]", "T_p [s]", "E_rel [%]"});
  for (graph::CommId i = 0; i < parsed.graph.size(); ++i) {
    const auto& c = parsed.graph.comm(i);
    table.add_row({std::string(parsed.graph.label(i)),
                   strformat("%d->%d", c.src, c.dst),
                   strformat("%.4f", cmp.measured[static_cast<size_t>(i)]),
                   strformat("%.4f", cmp.predicted[static_cast<size_t>(i)]),
                   strformat("%+.1f", cmp.erel[static_cast<size_t>(i)])});
  }
  std::cout << table.render()
            << strformat("\nE_abs over the scheme: %.1f %%\n", cmp.eabs);
  return 0;
}

/// Seeded dynamic-cluster scenario from the --churn / --background /
/// --scenario-seed flags: Poisson scripts over a 1 s horizon (the sweep
/// axes' convention, docs/EXPERIMENTS.md).
sim::Scenario scenario_from_flags(const CliArgs& args, int nodes) {
  sim::Scenario scenario;
  const double churn = args.get_double("churn", 0.0);
  const double background = args.get_double("background", 0.0);
  const std::uint64_t seed = args.get_u64("scenario-seed", 42);
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

void describe_scenario(const sim::Scenario& scenario) {
  if (scenario.empty()) return;
  std::cout << "scenario: " << scenario.churn.size()
            << " churn event(s), " << scenario.background.size()
            << " background flow(s)\n";
}

int run_trace(const CliArgs& args, const std::string& path) {
  const auto trace = sim::read_trace_file(path);
  trace.validate();
  const auto tech = topo::network_tech_from_string(args.get("network", "gige"));
  const int nodes = args.get_int_in("nodes", 16, 1, kMaxCount);
  const int cores = args.get_int_in("cores", 2, 1, kMaxCount);
  const auto cluster = topo::ClusterSpec::uniform(
      "cli", nodes, cores, topo::calibration_for(tech));
  const auto policy =
      sim::scheduling_policy_from_string(args.get("schedule", "RRN"));
  const auto placement =
      sim::make_placement(policy, cluster, trace.num_tasks());
  const auto scenario = scenario_from_flags(args, cluster.num_nodes());

  std::cout << "trace " << path << ": " << trace.num_tasks() << " tasks, "
            << trace.total_events() << " events, "
            << human_bytes(trace.total_bytes_sent()) << " sent; "
            << to_string(policy) << " on " << cluster.num_nodes() << "x"
            << cluster.cores_per_node() << " " << to_string(tech) << "\n";
  describe_scenario(scenario);

  const flowsim::FluidRateProvider fluid(cluster.network());
  const auto measured =
      sim::run_simulation(trace, cluster, placement, fluid, scenario);
  std::cout << "\nsubstrate (\"measured\"): " << sim::render_summary(measured)
            << "\n" << sim::render_task_table(measured);

  std::shared_ptr<const models::PenaltyModel> model = models::model_for(tech);
  const sim::ModelRateProvider provider(model, cluster.network());
  const auto predicted =
      sim::run_simulation(trace, cluster, placement, provider, scenario);
  std::cout << "\nmodel '" << model->name()
            << "' (\"predicted\"): " << sim::render_summary(predicted) << "\n";
  return 0;
}

int run_multijob(const CliArgs& args, const std::vector<std::string>& paths) {
  const auto tech = topo::network_tech_from_string(args.get("network", "gige"));
  const int nodes = args.get_int_in("nodes", 16, 1, kMaxCount);
  const int cores = args.get_int_in("cores", 2, 1, kMaxCount);
  const auto cluster = topo::ClusterSpec::uniform(
      "cli", nodes, cores, topo::calibration_for(tech));
  const auto policy =
      sim::scheduling_policy_from_string(args.get("schedule", "RRN"));
  std::vector<sim::JobSpec> jobs;
  for (const auto& path : paths) {
    sim::JobSpec job;
    const auto slash = path.find_last_of('/');
    job.name = slash == std::string::npos ? path : path.substr(slash + 1);
    job.trace = sim::read_trace_file(path);
    job.trace.validate();
    // Each job is placed independently by the policy, so jobs overlap on
    // the cluster — the contention being measured.
    job.placement =
        sim::make_placement(policy, cluster, job.trace.num_tasks());
    jobs.push_back(std::move(job));
  }
  const auto scenario = scenario_from_flags(args, cluster.num_nodes());

  std::cout << "multijob: " << jobs.size() << " job(s), "
            << to_string(policy) << " on " << cluster.num_nodes() << "x"
            << cluster.cores_per_node() << " " << to_string(tech) << "\n";
  describe_scenario(scenario);

  const flowsim::FluidRateProvider fluid(cluster.network());
  const auto result = sim::run_multi_job(jobs, cluster, fluid, scenario);
  std::cout << "\nshared replay: " << sim::render_summary(result.combined)
            << "\n\n" << sim::render_multi_job_table(result);
  return 0;
}

std::vector<std::string> split_list(const CliArgs& args,
                                    const std::string& flag,
                                    const std::string& fallback) {
  std::vector<std::string> out;
  for (const auto& item : split(args.get(flag, fallback), ',')) {
    const auto trimmed = trim(item);
    if (!trimmed.empty()) out.emplace_back(trimmed);
  }
  return out;
}

std::vector<double> split_double_list(const CliArgs& args,
                                      const std::string& flag,
                                      const std::string& fallback) {
  std::vector<double> out;
  for (const auto& item : split_list(args, flag, fallback)) {
    double value = 0.0;
    BWS_CHECK(try_parse_double(item, value),
              "--" + flag + " expects comma-separated numbers, got '" + item +
                  "'");
    out.push_back(value);
  }
  return out;
}

// Scheme lists are comma-separated, but generator specs carry commas of
// their own ("random:nodes=8,comms=12"). A token that looks like a bare
// key=value continues the preceding generator entry.
std::vector<std::string> split_scheme_list(const CliArgs& args,
                                           const std::string& flag,
                                           const std::string& fallback) {
  std::vector<std::string> out;
  for (const auto& item : split_list(args, flag, fallback)) {
    const bool continues_generator =
        !out.empty() && out.back().find(':') != std::string::npos &&
        item.find(':') == std::string::npos &&
        item.find('=') != std::string::npos;
    if (continues_generator) {
      out.back() += "," + item;
    } else {
      out.push_back(item);
    }
  }
  return out;
}

/// The grid axes shared by `sweep` and `campaign`: workloads, networks,
/// models, shapes, schedules and the dynamic-cluster rates. The default
/// scheme list differs per subcommand; `campaign` does not read --seeds
/// (replicate seeds come from the campaign's own stream).
eval::SweepSpec grid_axes_from_flags(const CliArgs& args,
                                     const std::string& default_schemes) {
  eval::SweepSpec spec;
  spec.schemes = split_scheme_list(args, "schemes", default_schemes);
  spec.traces = split_list(args, "traces", "");
  spec.networks.clear();
  for (const auto& name : split_list(args, "networks", "gige,myrinet")) {
    spec.networks.push_back(topo::network_tech_from_string(name));
  }
  spec.models = split_list(args, "models", "gige,myrinet");
  spec.shapes.clear();
  for (const auto& text : split_list(args, "shapes", "16x2")) {
    spec.shapes.push_back(eval::parse_sweep_shape(text));
  }
  spec.policies.clear();
  for (const auto& name : split_list(args, "schedules", "RRN")) {
    spec.policies.push_back(sim::scheduling_policy_from_string(name));
  }
  spec.churn_rates = split_double_list(args, "churn-rates", "0");
  spec.background_loads = split_double_list(args, "background-loads", "0");
  return spec;
}

int run_sweep(const CliArgs& args) {
  eval::SweepSpec spec = grid_axes_from_flags(args, "mk1,mk2");
  spec.seeds.clear();
  for (const auto& text : split_list(args, "seeds", "1,2,3")) {
    spec.seeds.push_back(parse_u64_flag("seeds", text));
  }

  const eval::Sweep sweep(std::move(spec));
  const int threads = args.get_int_in("threads", 0, 0, util::kMaxThreads);
  const int effective_threads =
      threads > 0 ? threads : util::hardware_threads();
  std::cout << "sweep: " << sweep.num_jobs() << " cells on "
            << effective_threads << " thread(s)\n";
  const auto result = sweep.run(threads);

  TextTable table({"kind", "workload", "network", "model", "shape", "policy",
                   "churn", "bg", "seed", "E_abs [%]", "status"});
  for (const auto& cell : result.cells) {
    table.add_row({cell.kind, cell.workload, cell.network, cell.model,
                   strformat("%dx%d", cell.nodes, cell.cores), cell.policy,
                   strformat("%g", cell.churn_rate),
                   strformat("%g", cell.background_load),
                   strformat("%llu",
                             static_cast<unsigned long long>(cell.seed)),
                   strformat("%.1f", cell.eabs_pct),
                   cell.ok ? "ok" : "ERROR: " + cell.error});
  }
  std::cout << "\n" << table.render();

  if (args.get_bool("marginals", false)) {
    TextTable marg({"axis", "value", "cells", "mean E_abs [%]",
                    "max E_abs [%]"});
    for (const auto& m : result.marginals) {
      marg.add_row({m.axis, m.value, strformat("%zu", m.cells),
                    strformat("%.1f", m.mean_eabs_pct),
                    strformat("%.1f", m.max_eabs_pct)});
    }
    std::cout << "\nmarginals:\n" << marg.render();
  }

  // A bare `--csv` parses as the value "true" (CliArgs boolean form) and
  // would silently create a file literally named "true" — reject it.
  const std::string csv_path = args.get("csv", "");
  BWS_CHECK(csv_path != "true", "--csv expects a path, e.g. --csv cells.csv");
  if (!csv_path.empty()) {
    util::write_text_file(csv_path, result.to_csv());
    std::cout << "\n[cells csv written to " << csv_path << "]\n";
  }
  const std::string json_path = args.get("json", "");
  BWS_CHECK(json_path != "true",
            "--json expects a path, e.g. --json cells.json");
  if (!json_path.empty()) {
    util::write_text_file(json_path, result.to_json());
    std::cout << "[json written to " << json_path << "]\n";
  }

  if (result.num_errors > 0) {
    std::cerr << "error: " << result.num_errors << " of "
              << result.cells.size() << " sweep cells failed\n";
    return 1;
  }
  return 0;
}

int run_campaign(const CliArgs& args) {
  eval::CampaignSpec spec;
  spec.grid = grid_axes_from_flags(args, "mk1,mk2");
  spec.objective = eval::objective_from_string(args.get("objective",
                                                        "measured"));
  spec.stop.rule =
      stats::stopping_rule_from_string(args.get("rule", "best-arm"));
  spec.stop.tolerance = args.get_double("tolerance", 0.05);
  spec.stop.confidence = args.get_double("confidence", 0.95);
  spec.stop.min_replicates = args.get_int_in("min-replicates", 8, 1, kMaxCount);
  spec.stop.max_replicates =
      args.get_int_in("max-replicates", 256, 1, kMaxCount);
  spec.stop.resamples = static_cast<size_t>(
      args.get_int_in("resamples", 400, 1, kMaxCount));
  spec.batch = args.get_int_in("batch", 8, 1, kMaxCount);
  spec.seed = args.get_u64("seed", 42);
  spec.stop.ci_seed = spec.seed;

  const eval::Campaign campaign(std::move(spec));
  const int threads = args.get_int_in("threads", 0, 0, util::kMaxThreads);
  const int effective_threads =
      threads > 0 ? threads : util::hardware_threads();
  std::cout << "campaign: " << campaign.num_arms() << " arm(s), rule "
            << stats::to_string(campaign.spec().stop.rule) << ", objective "
            << eval::to_string(campaign.spec().objective) << ", up to "
            << campaign.spec().stop.max_replicates << " replicates/arm on "
            << effective_threads << " thread(s)\n";
  const auto result = campaign.run(threads);

  TextTable table({"arm", "kind", "workload", "network", "model", "shape",
                   "policy", "replicates", "mean", "95% CI", "status"});
  for (size_t i = 0; i < result.arms.size(); ++i) {
    const auto& arm = result.arms[i];
    table.add_row({strformat("%zu", i), arm.kind, arm.workload, arm.network,
                   arm.model, strformat("%dx%d", arm.nodes, arm.cores),
                   arm.policy, strformat("%d", arm.replicates),
                   strformat("%.4f", arm.mean),
                   strformat("[%.4f, %.4f]", arm.ci_low, arm.ci_high),
                   arm.error ? "ERROR: " + arm.error_msg : arm.status()});
  }
  std::cout << "\n" << table.render();

  std::cout << "\nstopped by " << result.stopped_by << " after "
            << result.rounds << " round(s): " << result.total_replicates
            << " replays vs " << result.exhaustive_replicates
            << " exhaustive ("
            << strformat("%.1fx", result.savings_factor()) << " saved)\n";
  if (result.winner >= 0) {
    const auto& w = result.arms[static_cast<size_t>(result.winner)];
    std::cout << "winner: arm " << result.winner << " — " << w.workload
              << " on " << w.network << " (" << w.model << ", "
              << strformat("%dx%d", w.nodes, w.cores);
    if (w.kind == "trace") std::cout << ", " << w.policy;
    std::cout << "), mean " << strformat("%.4f", w.mean) << " "
              << (result.objective == "eabs" ? "%" : "s") << "\n";
  }

  const std::string csv_path = args.get("csv", "");
  BWS_CHECK(csv_path != "true", "--csv expects a path, e.g. --csv arms.csv");
  if (!csv_path.empty()) {
    util::write_text_file(csv_path, result.to_csv());
    std::cout << "\n[arms csv written to " << csv_path << "]\n";
  }
  const std::string json_path = args.get("json", "");
  BWS_CHECK(json_path != "true",
            "--json expects a path, e.g. --json arms.json");
  if (!json_path.empty()) {
    util::write_text_file(json_path, result.to_json());
    std::cout << "[json written to " << json_path << "]\n";
  }

  if (result.winner < 0) {
    std::cerr << "error: every campaign arm failed\n";
    return 1;
  }
  return 0;
}

int run_serve(const CliArgs& args) {
  serve::ServiceConfig config;
  config.threads = args.get_int_in("threads", 0, 0, util::kMaxThreads);
  const long cache = args.get_int("cache", 64);
  const long memo = args.get_int("memo", 65536);
  BWS_CHECK(cache >= 0, "--cache must be >= 0");
  BWS_CHECK(memo >= 0, "--memo must be >= 0");
  config.cache_capacity = static_cast<size_t>(cache);
  config.memo_capacity = static_cast<size_t>(memo);
  config.verify = args.get_bool("verify", false);
  const size_t failures =
      serve::run_serve_loop(std::cin, std::cout, config);
  if (failures > 0) {
    std::cerr << "error: " << failures << " request(s) failed\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const auto& pos = args.positional();
  if (pos.empty()) return usage(args.program());
  const std::string& subcommand = pos[0];
  try {
    if (subcommand == "scheme") {
      if (pos.size() < 2 ||
          !check_flags(args, subcommand,
                       {"network", "model", "nodes", "cores"})) {
        return usage(args.program());
      }
      return run_scheme(args, pos[1]);
    }
    if (subcommand == "trace") {
      if (pos.size() < 2 ||
          !check_flags(args, subcommand,
                       {"network", "schedule", "nodes", "cores", "churn",
                        "background", "scenario-seed"})) {
        return usage(args.program());
      }
      return run_trace(args, pos[1]);
    }
    if (subcommand == "multijob") {
      if (pos.size() < 3 ||
          !check_flags(args, subcommand,
                       {"network", "schedule", "nodes", "cores", "churn",
                        "background", "scenario-seed"})) {
        if (pos.size() < 3)
          std::cerr << args.program()
                    << " multijob: needs at least two trace files\n";
        return usage(args.program());
      }
      return run_multijob(
          args, std::vector<std::string>(pos.begin() + 1, pos.end()));
    }
    if (subcommand == "sweep") {
      // Workloads are flags (--schemes/--traces), never positionals; a
      // stray positional would otherwise silently run the default grid.
      if (pos.size() != 1) {
        std::cerr << args.program() << " sweep: unexpected argument '"
                  << pos[1] << "' (workloads go in --schemes/--traces)\n";
        return usage(args.program());
      }
      if (!check_flags(args, subcommand,
                       {"schemes", "traces", "networks", "models", "shapes",
                        "schedules", "churn-rates", "background-loads",
                        "seeds", "threads", "csv", "json", "marginals"})) {
        return usage(args.program());
      }
      return run_sweep(args);
    }
    if (subcommand == "campaign") {
      if (pos.size() != 1) {
        std::cerr << args.program() << " campaign: unexpected argument '"
                  << pos[1] << "' (workloads go in --schemes/--traces)\n";
        return usage(args.program());
      }
      if (!check_flags(args, subcommand,
                       {"schemes", "traces", "networks", "models", "shapes",
                        "schedules", "churn-rates", "background-loads",
                        "objective", "rule", "tolerance", "confidence",
                        "min-replicates", "max-replicates", "batch",
                        "resamples", "seed", "threads", "csv", "json"})) {
        return usage(args.program());
      }
      return run_campaign(args);
    }
    if (subcommand == "serve") {
      if (pos.size() != 1) {
        std::cerr << args.program() << " serve: unexpected argument '"
                  << pos[1] << "' (queries arrive on stdin)\n";
        return usage(args.program());
      }
      if (!check_flags(args, subcommand,
                       {"threads", "cache", "memo", "verify"})) {
        return usage(args.program());
      }
      return run_serve(args);
    }
    std::cerr << args.program() << ": unknown subcommand '" << subcommand
              << "'\n";
    return usage(args.program());
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
