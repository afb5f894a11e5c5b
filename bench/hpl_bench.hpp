// Shared harness for the fig-8/fig-9 HPL experiments: run the N=20500 ring
// trace under the three scheduling policies, compare per-task communication
// sums S_m vs S_p and report E_abs(t_i) — the bars-and-error-line layout of
// the paper's figures, as a table.
#pragma once

#include <iostream>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "hpl/hpl_trace.hpp"
#include "models/penalty_model.hpp"
#include "topo/cluster.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/strings.hpp"

namespace bwshare::bench {

inline int run_hpl_bench(int argc, char** argv, const std::string& title,
                         const topo::ClusterSpec& cluster,
                         const models::PenaltyModel& model) try {
  const CliArgs args(argc, argv);
  if (!args.check_flags({"n", "nb", "tasks", "panels", "csv"}, std::cerr))
    return 2;
  const bool csv = args.get_bool("csv", false);

  hpl::HplParams params;
  params.n = args.get_int_in("n", 20500, 1, kMaxCount);
  params.nb = args.get_int_in("nb", 120, 1, kMaxCount);
  // One MPI task per core, as HPL is normally run (the paper's nodes are
  // dual-CPU, so 16 nodes carry 32 tasks).
  params.tasks = args.get_int_in("tasks", 32, 1, kMaxCount);
  // 0 = the full factorization (~171 panels). The late panels are where the
  // lookahead broadcasts overlap and conflicts appear.
  params.max_panels = args.get_int_in("panels", 0, 0, kMaxCount);

  print_banner(std::cout, title);
  std::cout << strformat(
      "  HPL N=%d NB=%d, %d tasks, %d of %d panels, ring broadcast "
      "(task n -> n+1)\n",
      params.n, params.nb, params.tasks, hpl::num_panels(params),
      (params.n + params.nb - 1) / params.nb);

  const auto trace = hpl::make_hpl_trace(params);

  for (const auto policy :
       {sim::SchedulingPolicy::kRoundRobinNode,
        sim::SchedulingPolicy::kRoundRobinProcessor,
        sim::SchedulingPolicy::kRandom}) {
    const auto cmp =
        eval::compare_application_detailed(trace, cluster, policy, model)
            .summary;
    TextTable table({"task", "node", "S_m [s]", "S_p [s]", "E_abs [%]"});
    for (size_t t = 0; t < cmp.tasks.size(); ++t) {
      const auto& tc = cmp.tasks[t];
      table.add_row({strformat("%zu", t),
                     strformat("%d", cmp.placement.node_of(static_cast<int>(t))),
                     strformat("%.3f", tc.sum_measured),
                     strformat("%.3f", tc.sum_predicted),
                     strformat("%.1f", tc.eabs)});
    }
    std::cout << "\n  Scheduling " << to_string(policy) << ":\n";
    emit(csv, title + "_" + to_string(policy), table);
    std::cout << strformat(
        "  mean E_abs %.1f %%; makespan measured %s / predicted %s\n",
        cmp.mean_eabs, human_seconds(cmp.measured_makespan).c_str(),
        human_seconds(cmp.predicted_makespan).c_str());
  }
  return 0;
} catch (const Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}

}  // namespace bwshare::bench
