// Extension E9 — collective algorithms under bandwidth-sharing models.
//
// The paper's HPL uses a ring broadcast precisely because it avoids
// conflicts; this bench quantifies that choice by replaying the classic
// collective algorithms through the simulator on each interconnect model
// and on the substrate. Binomial trees finish in log p rounds but their
// concurrent sends conflict on SMP nodes; the ring never conflicts but pays
// p-1 serial hops.
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "models/registry.hpp"
#include "sim/collectives.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "topo/cluster.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/strings.hpp"

namespace {

using namespace bwshare;

double simulate(const sim::AppTrace& trace, const topo::ClusterSpec& cluster,
                const flowsim::RateProvider& provider) {
  const auto placement = sim::make_placement(
      sim::SchedulingPolicy::kRoundRobinNode, cluster, trace.num_tasks());
  return sim::run_simulation(trace, cluster, placement, provider).makespan;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  if (!args.check_flags({"tasks", "size", "csv"}, std::cerr)) return 2;
  const int p = args.get_int_in("tasks", 16, 1, kMaxCount);
  const double bytes = parse_size(args.get("size", "4M"));

  print_banner(std::cout, "Extension - collectives under sharing models");
  std::cout << "  " << p << " tasks, " << human_bytes(bytes)
            << " payload; makespan per algorithm (model vs substrate).\n";

  struct Algo {
    std::string name;
    std::function<void(sim::AppTrace&)> build;
  };
  const std::vector<Algo> algos = {
      {"ring broadcast",
       [&](sim::AppTrace& t) { sim::append_ring_broadcast(t, 0, bytes); }},
      {"binomial broadcast",
       [&](sim::AppTrace& t) { sim::append_binomial_broadcast(t, 0, bytes); }},
      {"scatter",
       [&](sim::AppTrace& t) { sim::append_scatter(t, 0, bytes); }},
      {"gather", [&](sim::AppTrace& t) { sim::append_gather(t, 0, bytes); }},
      {"ring allreduce",
       [&](sim::AppTrace& t) { sim::append_ring_allreduce(t, bytes); }},
      {"all-to-all",
       [&](sim::AppTrace& t) { sim::append_all_to_all(t, bytes / p); }},
  };

  for (const auto tech :
       {topo::NetworkTech::kGigabitEthernet, topo::NetworkTech::kMyrinet2000,
        topo::NetworkTech::kInfinibandInfinihost3}) {
    const auto cluster =
        topo::ClusterSpec::uniform("coll", p, 2, topo::calibration_for(tech));
    std::shared_ptr<const models::PenaltyModel> model =
        models::model_for(tech);
    const sim::ModelRateProvider model_provider(model, cluster.network());
    const flowsim::FluidRateProvider fluid_provider(cluster.network());

    TextTable table({"algorithm", "model makespan", "substrate makespan",
                     "ratio"});
    for (const auto& algo : algos) {
      sim::AppTrace trace(p);
      algo.build(trace);
      const double tp = simulate(trace, cluster, model_provider);
      const double tm = simulate(trace, cluster, fluid_provider);
      table.add_row({algo.name, human_seconds(tp), human_seconds(tm),
                     strformat("%.3f", tp / tm)});
    }
    std::cout << "\n  " << to_string(tech) << ":\n";
    bench::emit(args, "ext_collectives_" + to_string(tech), table);
  }
  std::cout << "\n  Reading: the ring broadcast is conflict-free (ratio "
               "1.00); tree/scatter shapes\n  stress the models the way "
               "fig-2's fans do.\n";
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
