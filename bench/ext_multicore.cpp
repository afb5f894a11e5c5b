// Extension E8 — the paper's stated future work (§VII): "test our models on
// nodes with 8 and 16 cores to extend them".
//
// Sweep cores-per-node for a fixed 16-task job where every task on node 0
// streams to a distinct remote node (the fan conflict grows with core
// count), and report model-vs-substrate E_abs per interconnect. The fan
// degree equals the core count, so this probes the models far beyond the
// 2-core regime they were fitted in.
#include <iostream>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "graph/schemes.hpp"
#include "models/registry.hpp"
#include "topo/cluster.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace bwshare;
  const CliArgs args(argc, argv);
  if (!args.check_flags({"size", "csv"}, std::cerr)) return 2;
  const bool csv = args.get_bool("csv", false);
  const double bytes = parse_size(args.get("size", "20M"));

  print_banner(std::cout,
               "Extension - models on 2/4/8/16-core nodes (SVII future work)");
  std::cout << "  Outgoing fan of degree = cores per node, " << human_bytes(bytes)
            << " messages; cells are E_abs [%] of the paper's model vs the "
               "substrate.\n\n";

  TextTable table({"cores/node", "GigE", "Myrinet", "Infiniband"});
  for (int cores : {2, 4, 8, 16}) {
    std::vector<std::string> row{strformat("%d", cores)};
    for (const auto tech :
         {topo::NetworkTech::kGigabitEthernet, topo::NetworkTech::kMyrinet2000,
          topo::NetworkTech::kInfinibandInfinihost3}) {
      const auto cluster = topo::ClusterSpec::uniform(
          "sweep", cores + 2, cores, topo::calibration_for(tech));
      const auto scheme = graph::schemes::outgoing_fan(cores, bytes);
      const auto model = models::model_for(tech);
      const auto cmp = eval::compare_scheme(scheme, cluster, *model);
      row.push_back(strformat("%.1f", cmp.eabs));
    }
    table.add_row(row);
  }
  bench::emit(csv, "ext_multicore", table);
  std::cout
      << "  The fan penalty formulas are linear in the degree, so the models "
         "track the\n  substrate at any core count; on real hardware the "
         "paper expected new effects\n  (memory bus saturation) to appear — "
         "the substrate's duplex bus only models the NIC.\n";

  // Second sweep: a duplex-loaded node (cores-1 outgoing + 1 incoming),
  // the fig-2 S5 pattern scaled up.
  std::cout << "\n  Duplex variant (cores-1 outgoing + 1 incoming at node 0):\n";
  TextTable table2({"cores/node", "GigE", "Myrinet", "Infiniband"});
  for (int cores : {2, 4, 8, 16}) {
    std::vector<std::string> row{strformat("%d", cores)};
    for (const auto tech :
         {topo::NetworkTech::kGigabitEthernet, topo::NetworkTech::kMyrinet2000,
          topo::NetworkTech::kInfinibandInfinihost3}) {
      const auto cluster = topo::ClusterSpec::uniform(
          "sweep", cores + 3, cores, topo::calibration_for(tech));
      graph::CommGraph scheme;
      for (int i = 1; i < cores; ++i)
        scheme.add(strformat("o%d", i), 0, i, bytes);
      scheme.add("in", cores, 0, bytes);
      const auto model = models::model_for(tech);
      const auto cmp = eval::compare_scheme(scheme, cluster, *model);
      row.push_back(strformat("%.1f", cmp.eabs));
    }
    table2.add_row(row);
  }
  bench::emit(csv, "ext_multicore_duplex", table2);
  std::cout << "  The same-direction models ignore the duplex bus, so their "
               "error grows with\n  the income/outgo load — the gap the "
               "paper's future work was after.\n";
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
