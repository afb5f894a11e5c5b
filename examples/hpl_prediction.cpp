// HPL scheduling advisor: predict how task placement (RRN / RRP / Random)
// changes Linpack's communication cost on a chosen interconnect — the
// paper's fig-8/9 experiment turned into a what-if tool.
//
//   $ ./hpl_prediction [--network myrinet] [--tasks 16] [--n 20500]
#include <iostream>

#include "eval/experiment.hpp"
#include "hpl/hpl_trace.hpp"
#include "models/registry.hpp"
#include "topo/cluster.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) try {
  using namespace bwshare;
  const CliArgs args(argc, argv);

  const auto tech =
      topo::network_tech_from_string(args.get("network", "myrinet"));
  const int tasks = args.get_int_in("tasks", 16, 1, kMaxCount);

  hpl::HplParams params;
  params.n = args.get_int_in("n", 20500, 1, kMaxCount);
  params.nb = args.get_int_in("nb", 120, 1, kMaxCount);
  params.tasks = tasks;
  params.max_panels = args.get_int_in("panels", 32, 1, kMaxCount);

  const auto cluster = topo::ClusterSpec::uniform(
      "advisor", tasks, 2, topo::calibration_for(tech));
  const auto model = models::model_for(tech);
  const auto trace = hpl::make_hpl_trace(params);

  std::cout << "HPL N=" << params.n << " on " << to_string(tech) << ", "
            << tasks << " tasks - scheduling comparison (predicted vs "
               "substrate):\n\n";

  TextTable table({"scheduling", "makespan (sim)", "makespan (model)",
                   "mean E_abs [%]"});
  for (const auto policy :
       {sim::SchedulingPolicy::kRoundRobinNode,
        sim::SchedulingPolicy::kRoundRobinProcessor,
        sim::SchedulingPolicy::kRandom}) {
    const auto cmp = eval::compare_application(trace, cluster, policy, *model);
    table.add_row({to_string(policy), human_seconds(cmp.measured_makespan),
                   human_seconds(cmp.predicted_makespan),
                   strformat("%.1f", cmp.mean_eabs)});
  }
  std::cout << table.render()
            << "\nRRP co-locates ring neighbours (half the hops become "
               "shared-memory copies);\nRandom placement scatters them and "
               "pays full network cost.\n";
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
