// Ablation A3 — the paper's models vs the §II baselines (LogGP-style linear
// model with no sharing; Kim & Lee's max-multiplicity model [7]) on the
// fig-2 schemes and fig-7 graphs, scored by E_abs against the substrate.
#include <iostream>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "graph/schemes.hpp"
#include "models/registry.hpp"
#include "topo/cluster.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace bwshare;
  const CliArgs args(argc, argv);
  if (!args.check_flags({"csv"}, std::cerr)) return 2;

  print_banner(std::cout, "Ablation - paper models vs SII baselines (E_abs %)");

  struct Case {
    std::string name;
    graph::CommGraph g;
  };
  std::vector<Case> cases;
  for (int s = 2; s <= 6; ++s)
    cases.push_back({strformat("fig2 S%d", s), graph::schemes::fig2_scheme(s)});
  cases.push_back({"mk1 tree", graph::schemes::mk1_tree()});
  cases.push_back({"mk2 complete", graph::schemes::mk2_complete()});

  struct Net {
    topo::ClusterSpec cluster;
    std::string paper_model;
  };
  const std::vector<Net> nets = {
      {topo::ClusterSpec::ibm_eserver326_gige(10), "gige"},
      {topo::ClusterSpec::ibm_eserver325_myrinet(10), "myrinet"},
      {topo::ClusterSpec::bull_novascale_ib(10), "infiniband"},
  };

  for (const auto& net : nets) {
    TextTable table({"scheme", "paper model", "kimlee", "loggp"});
    for (const auto& c : cases) {
      std::vector<std::string> row{c.name};
      for (const auto& model_name :
           {net.paper_model, std::string("kimlee"), std::string("loggp")}) {
        const auto model = models::make_model(model_name);
        const auto cmp = eval::compare_scheme(c.g, net.cluster, *model);
        row.push_back(strformat("%.1f", cmp.eabs));
      }
      table.add_row(row);
    }
    std::cout << "\n  " << net.cluster.name() << " (paper model: "
              << net.paper_model << "):\n";
    bench::emit(args, "abl_baselines_" + net.paper_model, table);
  }
  std::cout << "\n  Expectation (paper SII): the linear LogGP baseline "
               "misses sharing entirely;\n  Kim-Lee over-penalizes "
               "asymmetric conflicts; the paper's models win.\n";
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
