// Experiment E5 — paper Fig 7: model accuracy on synthetic graphs — the MK1
// tree and the MK2 complete graph — as measured-vs-predicted communication
// times with E_abs per graph.
//
// The paper reports (Myrinet model): MK1 E_abs = 2.6 %, MK2 E_abs = 9.5 %,
// trees mostly pessimistic, complete graphs pessimistic on Myrinet /
// optimistic on GigE. Message sizes are not printed in the paper; the
// built-in schemes use a uniform 4 MB (see DESIGN.md §2), so absolute T
// columns differ while the error structure is comparable.
//
// This bench drives the eval::Sweep campaign runner (the same grid is
// reproducible as `bwshare_cli sweep --schemes mk1,mk2 --networks
// gige,myrinet --models network --shapes 10x2 --seeds 42`): 2 schemes x
// 2 interconnects, each predicted by its interconnect's own model.
// `--size 8M` rescales the message size (sweep "mk1@8M" syntax);
// `--threads N` sets the thread count (results are identical at any value);
// `--csv [PATH]` writes the per-cell sweep CSV (default
// fig7_synthetic_cells.csv next to the binary).
#include <iostream>

#include "eval/sweep.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace bwshare;

// Paper Fig 7 E_abs reference values (Myrinet model; the GigE cells are the
// §VI-C discussion, no printed number).
std::string paper_reference(const eval::SweepCell& cell) {
  if (cell.network != "myrinet") return "-";
  if (starts_with(cell.workload, "mk1")) return "2.6";
  if (starts_with(cell.workload, "mk2")) return "9.5";
  return "-";
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  if (!args.check_flags({"size", "threads", "csv"}, std::cerr)) return 2;

  print_banner(std::cout,
               "Fig 7 — synthetic graphs MK1 (tree) and MK2 (complete)");

  // Validate --size eagerly so a typo fails loudly, not as 4 errored cells.
  const std::string size = args.get("size", "4M");
  (void)parse_size(size);

  // Both `--csv` (boolean, bench convention — any get_bool spelling) and
  // `--csv PATH` (the bwshare_cli sweep convention) work. The path is
  // opened (emptied) now, so an unwritable one fails before the sweep runs.
  std::string csv_path;
  const std::string csv_arg = args.get("csv", "");
  if (csv_arg == "true" || csv_arg == "1" || csv_arg == "yes" ||
      csv_arg == "on") {
    csv_path = "fig7_synthetic_cells.csv";
  } else if (csv_arg != "false" && csv_arg != "0" && csv_arg != "no" &&
             csv_arg != "off") {
    csv_path = csv_arg;
  }
  if (!csv_path.empty()) util::write_text_file(csv_path, "");

  eval::SweepSpec spec;
  spec.schemes = {"mk1@" + size, "mk2@" + size};
  spec.networks = {topo::NetworkTech::kGigabitEthernet,
                   topo::NetworkTech::kMyrinet2000};
  spec.models = {"network"};  // each interconnect predicted by its own model
  spec.shapes = {{10, 2}};    // the seed bench's 10-node clusters
  spec.seeds = {42};          // static schemes; seed only labels the cells

  const eval::Sweep sweep(std::move(spec));
  const int threads = args.get_int_in("threads", 0, 0, util::kMaxThreads);
  const auto result = sweep.run(threads);

  TextTable table({"graph", "network", "model", "comms", "T_m sum [s]",
                   "T_p sum [s]", "E_abs [%]", "paper [%]"});
  for (const auto& cell : result.cells) {
    BWS_CHECK(cell.ok, "fig7 sweep cell failed: " + cell.error);
    table.add_row({cell.workload, cell.network, cell.model,
                   strformat("%d", cell.units),
                   strformat("%.4f", cell.measured_s),
                   strformat("%.4f", cell.predicted_s),
                   strformat("%.1f", cell.eabs_pct), paper_reference(cell)});
  }
  std::cout << table.render() << "\n";

  std::cout << "  per-axis marginals (mean E_abs over ok cells):\n";
  for (const auto& m : result.marginals) {
    if (m.axis != "workload" && m.axis != "network") continue;
    std::cout << strformat("    %-8s %-8s mean %.1f %%  max %.1f %%\n",
                           m.axis.c_str(), m.value.c_str(), m.mean_eabs_pct,
                           m.max_eabs_pct);
  }

  if (!csv_path.empty()) {
    util::write_text_file(csv_path, result.to_csv());
    std::cout << "  [sweep cells csv written to " << csv_path << "]\n";
  }
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
