// Engine event-loop scaling: wall time and steady-state allocations of one
// replay of a sparse schedule, node count by node count (docs/PERFORMANCE.md).
//
// Scenario: a sparse schedule on N nodes — per round, a seeded random
// perfect matching where every node either sends or receives exactly one
// rendezvous message, rounds separated by barriers. The conflict graph of
// each round is N/2 disjoint pairs, the regime where the component-scoped
// solver touches O(1) communications per event, and where each round's
// release flushes N/2 disjoint dirty components and wakes N/2 receivers at
// the same instant.
//
// A --churn axis (events/s, default 0) scripts seeded node join/leave/fail
// events onto every replay (sim/scenario.hpp): failures abort in-flight
// transfers and dirty their components, so churned rows measure the solver
// under membership events instead of assuming the static-cluster numbers
// transfer.
//
// Emits BENCH_engine.json (schema_version 6, docs/PERFORMANCE.md) so the
// repo keeps a machine-readable perf trajectory: one row per
// provider x node count x churn rate, each echoing the RNG seed it measured
// so a baseline is reproducible from the file alone. Every row carries
// allocation counters (util::alloc_count()): alloc_total over the timed
// replay, and alloc_per_event — the allocation count delta between the
// R-round replay and a warmed 1-round twin, divided by the completed-comm
// delta. Every provider solves in the arena, so on churn-free rows the
// steady-state event loop is allocation-free and the per-event figure must
// stay 0 (CI gates it). Every cell up to --max-verify-nodes also replays the
// schedule under EngineConfig::verify, whose oracles throw on any
// divergence, and the bench exits non-zero unless that replay is
// bit-identical to the timed one.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/alloc_counter.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace {

using namespace bwshare;

sim::AppTrace sparse_matching_trace(int nodes, int rounds, double bytes,
                                    uint64_t seed) {
  sim::AppTrace trace(nodes);
  Rng rng(seed);
  std::vector<int> order(static_cast<size_t>(nodes));
  std::iota(order.begin(), order.end(), 0);
  for (int r = 0; r < rounds; ++r) {
    // Seeded Fisher-Yates: a fresh perfect matching every round.
    for (int i = nodes - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.below(static_cast<uint64_t>(i + 1)));
      std::swap(order[static_cast<size_t>(i)], order[static_cast<size_t>(j)]);
    }
    for (int p = 0; p + 1 < nodes; p += 2) {
      const sim::TaskId src = order[static_cast<size_t>(p)];
      const sim::TaskId dst = order[static_cast<size_t>(p + 1)];
      trace.push(src, sim::Event::send(dst, bytes));
      trace.push(dst, sim::Event::recv(src, bytes));
    }
    trace.push_barrier_all();
  }
  return trace;
}

struct Run {
  double wall_ms = 0.0;
  uint64_t allocs = 0;  // global operator-new count during the replay
  sim::SimResult result;
};

Run timed_run(const sim::AppTrace& trace, const topo::ClusterSpec& cluster,
              const sim::Placement& placement,
              const flowsim::RateProvider& provider,
              const sim::Scenario& scenario, bool verify = false) {
  Run out;
  const uint64_t allocs0 = util::alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  sim::EngineConfig cfg;
  cfg.verify = verify;
  out.result =
      sim::run_simulation(trace, cluster, placement, provider, scenario, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  out.allocs = util::alloc_count() - allocs0;
  out.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          t1 - t0)
          .count();
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  return strformat("%.9g", v);
}

void usage(const char* prog) {
  std::cout
      << "usage: " << prog << " [options]\n"
      << "  --nodes N,N,...       node counts (default 64,128,256,512,1024,"
         "2048,4096,8192,16384,32768,65536)\n"
      << "  --rounds R            matching rounds per scenario (default 3)\n"
      << "  --bytes B             message size in bytes (default 4000000)\n"
      << "  --seed S              matching seed (default 1)\n"
      << "  --churn LIST          membership-churn rates in events/s of\n"
      << "                        simulated time (default 0; each nonzero\n"
      << "                        rate adds a row set replaying under a\n"
      << "                        seeded join/leave/fail script)\n"
      << "  --providers LIST      fluid and/or gige (default fluid)\n"
      << "  --max-verify-nodes N  largest size also replayed under\n"
      << "                        EngineConfig::verify (default 1024; its\n"
      << "                        oracles cost O(active set) per event)\n"
      << "  --out PATH            JSON output (default BENCH_engine.json)\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  if (args.get_bool("help", false)) {
    usage(args.program().c_str());
    return 0;
  }
  const auto unknown = args.unknown_flags(
      {"nodes", "rounds", "bytes", "seed", "churn", "providers",
       "max-verify-nodes", "out", "help"});
  if (!unknown.empty()) {
    std::cerr << "error: unknown flag --" << unknown.front() << "\n";
    usage(args.program().c_str());
    return 2;
  }

  const std::string nodes_list = args.get(
      "nodes", "64,128,256,512,1024,2048,4096,8192,16384,32768,65536");
  const int rounds = args.get_int_in("rounds", 3, 1, kMaxCount);
  const double bytes = args.get_double("bytes", 4e6);
  const uint64_t seed = args.get_u64("seed", 1);
  const long max_verify = args.get_int("max-verify-nodes", 1024);
  const std::string out_path = args.get("out", "BENCH_engine.json");
  const std::string providers = args.get("providers", "fluid");

  std::vector<int> sizes;
  for (const auto& tok : split(nodes_list, ',')) {
    // Checked before the int cast; a perfect matching needs two nodes.
    const double n = parse_size(trim(tok));
    BWS_CHECK(n >= 2.0 && n <= kMaxCount && n == std::floor(n),
              strformat("flag --nodes entries must be whole numbers in "
                        "[2, %d], got '%s'",
                        kMaxCount, std::string(trim(tok)).c_str()));
    sizes.push_back(static_cast<int>(n));
  }
  std::vector<double> churn_rates;
  for (const auto& tok : split(args.get("churn", "0"), ',')) {
    double rate = 0.0;
    BWS_CHECK(try_parse_double(trim(tok), rate) && rate >= 0.0,
              "--churn expects comma-separated non-negative rates");
    churn_rates.push_back(rate);
  }
  std::vector<std::string> provider_names = split(providers, ',');

  const auto cal = topo::gigabit_ethernet_calibration();
  std::string rows;
  bool all_identical = true;

  std::printf("%-8s %-7s %-6s %14s %11s %8s  %s\n", "provider", "nodes",
              "churn", "incremental_ms", "alloc_total", "alloc/ev", "verify");
  for (const auto& pname : provider_names) {
    const flowsim::FluidRateProvider fluid(cal);
    std::shared_ptr<const models::PenaltyModel> model;
    std::unique_ptr<sim::ModelRateProvider> model_provider;
    const flowsim::RateProvider* provider = &fluid;
    if (pname == "gige") {
      model = models::make_model("gige");
      model_provider = std::make_unique<sim::ModelRateProvider>(model, cal);
      provider = model_provider.get();
    } else {
      BWS_CHECK(pname == "fluid", "unknown provider '" + pname + "'");
    }

    for (const int n : sizes) {
      const auto trace = sparse_matching_trace(n, rounds, bytes, seed);
      // One-round twin of the same schedule: the (R-round - 1-round)
      // allocation delta cancels per-replay setup costs (engine state,
      // scratch growth), leaving the steady-state per-event count.
      const auto trace1 = sparse_matching_trace(n, 1, bytes, seed);
      const auto cluster = topo::ClusterSpec::uniform("bench", n, 1, cal);
      const auto placement = sim::make_placement(
          sim::SchedulingPolicy::kRoundRobinNode, cluster, n);

      for (const double churn : churn_rates) {
        sim::Scenario scenario;
        if (churn > 0.0) {
          graph::ChurnSpec churn_spec;
          churn_spec.rate = churn;
          churn_spec.nodes = n;
          scenario.churn = graph::generate_churn(churn_spec, seed);
        }

        // Warm the thread-local solve scratch/arena, then measure the
        // 1-round twin so both it and the R-round replay below run warm —
        // their allocation delta is then pure steady-state work.
        (void)timed_run(trace1, cluster, placement, *provider, scenario);
        const Run one =
            timed_run(trace1, cluster, placement, *provider, scenario);
        const Run run =
            timed_run(trace, cluster, placement, *provider, scenario);
        const double comm_delta =
            static_cast<double>(run.result.comms.size()) -
            static_cast<double>(one.result.comms.size());
        const double alloc_per_event =
            comm_delta > 0.0 ? (static_cast<double>(run.allocs) -
                                static_cast<double>(one.allocs)) /
                                   comm_delta
                             : -1.0;
        // The verify replay throws on any oracle divergence; it must also
        // reproduce the timed replay bit for bit.
        const bool verified = n <= max_verify;
        if (verified) {
          const Run check = timed_run(trace, cluster, placement, *provider,
                                      scenario, /*verify=*/true);
          if (!sim::bit_identical(run.result, check.result))
            all_identical = false;
        }

        std::printf("%-8s %-7d %-6s %14.3f %11llu %8s  %s\n", pname.c_str(),
                    n, strformat("%g", churn).c_str(), run.wall_ms,
                    static_cast<unsigned long long>(run.allocs),
                    alloc_per_event >= 0.0
                        ? strformat("%.3g", alloc_per_event).c_str()
                        : "-",
                    verified ? "ok" : "skipped");
        std::fflush(stdout);

        if (!rows.empty()) rows += ",";
        rows += strformat(
            "\n    {\"provider\": \"%s\", \"nodes\": %d, "
            "\"comms_per_round\": %d, \"rounds\": %d, \"seed\": %llu, "
            "\"churn_rate\": %s, \"aborted\": %zu, \"makespan\": %s, "
            "\"incremental_ms\": %s, \"alloc_total\": %llu, "
            "\"alloc_per_event\": %s, \"verify\": %s}",
            pname.c_str(), n, n / 2, rounds,
            static_cast<unsigned long long>(seed), json_num(churn).c_str(),
            run.result.aborted_comms, json_num(run.result.makespan).c_str(),
            json_num(run.wall_ms).c_str(),
            static_cast<unsigned long long>(run.allocs),
            alloc_per_event >= 0.0 ? json_num(alloc_per_event).c_str()
                                   : "null",
            verified ? "true" : "false");
      }
    }
  }

  std::string nodes_json;
  for (const int n : sizes)
    nodes_json += strformat(nodes_json.empty() ? "%d" : ", %d", n);
  std::string churn_json;
  for (const double churn : churn_rates) {
    if (!churn_json.empty()) churn_json += ", ";
    churn_json += json_num(churn);
  }
  std::string providers_json;
  for (const auto& pname : provider_names) {
    if (!providers_json.empty()) providers_json += ", ";
    providers_json += "\"" + pname + "\"";
  }

  const std::string json = strformat(
      "{\n  \"bench\": \"engine_scaling\",\n  \"schema_version\": 6,\n"
      "  \"config\": {\"rounds\": %d, \"bytes\": %s, \"seed\": %llu, "
      "\"max_verify_nodes\": %ld, \"nodes\": [%s], \"churn\": [%s], "
      "\"providers\": [%s]},\n  \"results\": [%s\n  ]\n}\n",
      rounds, json_num(bytes).c_str(),
      static_cast<unsigned long long>(seed), max_verify, nodes_json.c_str(),
      churn_json.c_str(), providers_json.c_str(), rows.c_str());
  util::write_text_file(out_path, json);
  std::cout << "  [json written to " << out_path << "]\n";

  if (!all_identical) {
    std::cerr << "error: a verify replay was not bit-identical to its "
                 "default twin\n";
    return 1;
  }
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
