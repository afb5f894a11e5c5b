// Network advisor: the paper's motivating use case — "help an HPC
// integrator to propose a network solution for a set of applications"
// (§I). For each application the advisor runs an adaptive Monte-Carlo
// campaign (eval::Campaign, docs/EXPERIMENTS.md "Campaigns"): the three
// interconnects are candidate arms, replicates draw fresh seeded random
// placements, and sampling stops as soon as the fastest interconnect's
// confidence interval separates from every rival's — answering from a
// fraction of the replays the exhaustive fixed grid would burn.
//
//   $ ./network_advisor [--tasks 16] [--panels 24] [--confidence 0.95]
//                       [--max-replicates 40] [--batch 4] [--seed 42]
//                       [--threads 0]
#include <iostream>

#include "eval/campaign.hpp"
#include "hpl/hpl_trace.hpp"
#include "mpi/minimpi.hpp"
#include "topo/network.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bwshare;

/// A neighbour-exchange halo application recorded through MiniMPI: each
/// rank trades 8 MB with both ring neighbours, then computes.
sim::AppTrace halo_app(int ranks) {
  mpi::MiniMpi mpi(ranks);
  mpi.run([ranks](mpi::Rank& self) {
    const double bytes = 8e6;
    const int next = (self.rank() + 1) % ranks;
    const int prev = (self.rank() + ranks - 1) % ranks;
    for (int step = 0; step < 4; ++step) {
      // Even ranks send first; odd ranks receive first (classic deadlock-
      // free exchange).
      if (self.rank() % 2 == 0) {
        self.send(next, bytes);
        self.recv(prev, bytes);
        self.send(prev, bytes);
        self.recv(next, bytes);
      } else {
        self.recv(prev, bytes);
        self.send(next, bytes);
        self.recv(next, bytes);
        self.send(prev, bytes);
      }
      self.compute(0.05);
    }
  });
  return mpi.trace();
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  const int tasks = args.get_int_in("tasks", 16, 1, kMaxCount);

  hpl::HplParams hpl_params;
  hpl_params.n = 20500;
  hpl_params.nb = 120;
  hpl_params.tasks = tasks;
  hpl_params.max_panels = args.get_int_in("panels", 24, 1, kMaxCount);

  struct App {
    std::string name;
    sim::AppTrace trace;
  };
  const std::vector<App> apps = {
      {"HPL (ring broadcast)", hpl::make_hpl_trace(hpl_params)},
      {"halo exchange", halo_app(tasks)},
  };

  // One campaign per application: arms are the three interconnects; every
  // replicate replays the trace under a fresh seeded random placement, so
  // the verdict holds over placement noise, not for one lucky layout.
  eval::CampaignSpec spec;
  spec.grid.networks = {topo::NetworkTech::kGigabitEthernet,
                        topo::NetworkTech::kMyrinet2000,
                        topo::NetworkTech::kInfinibandInfinihost3};
  spec.grid.models = {"network"};
  spec.grid.shapes = {{tasks, 2}};
  spec.grid.policies = {sim::SchedulingPolicy::kRandom};
  spec.objective = eval::Objective::kMeasuredSeconds;
  spec.stop.rule = stats::StoppingRule::kBestArm;
  spec.stop.confidence = args.get_double("confidence", 0.95);
  spec.stop.min_replicates = 4;
  spec.stop.max_replicates =
      args.get_int_in("max-replicates", 40, 1, kMaxCount);
  spec.batch = args.get_int_in("batch", 4, 1, kMaxCount);
  spec.seed = args.get_u64("seed", 42);
  spec.stop.ci_seed = spec.seed;
  const int threads = args.get_int_in("threads", 0, 0, util::kMaxThreads);

  std::cout << "Interconnect advisor (adaptive campaign, best-arm rule at "
            << strformat("%.0f%%", spec.stop.confidence * 100.0)
            << " confidence):\n";
  size_t total_replays = 0;
  size_t exhaustive_replays = 0;
  for (const auto& app : apps) {
    std::vector<eval::ResolvedWorkload> workloads(1);
    workloads[0].key = app.name;
    workloads[0].trace = std::make_shared<const sim::AppTrace>(app.trace);
    const eval::Campaign campaign(spec, std::move(workloads));
    const auto result = campaign.run(threads);
    total_replays += result.total_replicates;
    exhaustive_replays += result.exhaustive_replicates;

    TextTable table({"interconnect", "replays", "makespan",
                     "95% CI", "verdict"});
    for (const auto& arm : result.arms) {
      table.add_row({arm.network, strformat("%d", arm.replicates),
                     human_seconds(arm.mean),
                     strformat("[%s, %s]", human_seconds(arm.ci_low).c_str(),
                               human_seconds(arm.ci_high).c_str()),
                     arm.error ? "ERROR: " + arm.error_msg : arm.status()});
    }
    std::cout << "\n  " << app.name << " (" << app.trace.num_tasks()
              << " tasks):\n" << table.render();
    if (result.winner >= 0) {
      const auto& w = result.arms[static_cast<size_t>(result.winner)];
      std::cout << "  -> recommend " << w.network << ": "
                << result.total_replicates << " replays ("
                << result.stopped_by << " after " << result.rounds
                << " rounds) vs " << result.exhaustive_replicates
                << " exhaustive, "
                << strformat("%.1fx", result.savings_factor()) << " saved\n";
    } else {
      std::cout << "  -> no recommendation: every arm failed\n";
    }
  }
  std::cout << "\ntotal: " << total_replays << " replays where the fixed "
            << "grid runs " << exhaustive_replays << "\n";
  std::cout << "\nNote: InfiniBand wins on raw bandwidth even though GigE "
               "shares more gracefully\n(the paper's closing observation in "
               "SIV-C).\n";
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
