// Experiment E4 — paper Fig 5 & Fig 6: the Myrinet model's state-set
// enumeration on the worked example, reproduced exactly:
//   5 maximal send/wait state sets; emission sums a..f = 1 2 2 2 2 3;
//   per-source-node minima 1 1 1 2 2 2; penalties 5 5 5 2.5 2.5 2.5.
#include <iostream>

#include "bench_util.hpp"
#include "graph/schemes.hpp"
#include "models/myrinet.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace bwshare;
  const CliArgs args(argc, argv);
  if (!args.check_flags({"csv"}, std::cerr)) return 2;

  print_banner(std::cout, "Fig 5/6 — Myrinet send/wait state enumeration");

  const auto g = graph::schemes::fig5_scheme();
  const models::MyrinetModel model;
  const auto analysis = model.analyze(g, /*materialize_sets=*/true);

  std::cout << "  Graph: ";
  for (graph::CommId i = 0; i < g.size(); ++i) {
    const auto& c = g.comm(i);
    std::cout << g.label(i) << ":" << c.src << "->" << c.dst << "  ";
  }
  std::cout << "\n\n  State sets (communications in 'send'):\n";
  for (size_t s = 0; s < analysis.state_sets.size(); ++s) {
    std::cout << "    " << (s + 1) << ": {";
    for (size_t k = 0; k < analysis.state_sets[s].size(); ++k) {
      if (k) std::cout << ", ";
      std::cout << g.label(analysis.state_sets[s][k]);
    }
    std::cout << "}\n";
  }
  std::cout << "\n  Total state sets: " << analysis.num_state_sets
            << "   (paper: 5)\n\n";

  TextTable table({"", "a", "b", "c", "d", "e", "f"});
  auto row = [&](const std::string& label, auto getter) {
    std::vector<std::string> cells{label};
    for (graph::CommId i = 0; i < g.size(); ++i) cells.push_back(getter(i));
    table.add_row(cells);
  };
  row("Sum", [&](graph::CommId i) {
    return strformat("%llu", static_cast<unsigned long long>(
                                 analysis.emission[static_cast<size_t>(i)]));
  });
  row("Minimum", [&](graph::CommId i) {
    return strformat("%llu",
                     static_cast<unsigned long long>(
                         analysis.min_emission[static_cast<size_t>(i)]));
  });
  row("penalty", [&](graph::CommId i) {
    return strformat("%.1f", analysis.penalty[static_cast<size_t>(i)]);
  });
  bench::emit(args, "fig5_fig6", table);
  std::cout << "  Paper fig 6:   Sum 1 2 2 2 2 3 | Minimum 1 1 1 2 2 2 | "
               "penalty 5 5 5 2.5 2.5 2.5\n";
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
