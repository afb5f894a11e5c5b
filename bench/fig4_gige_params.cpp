// Experiments E2+E3 — paper §V-A and Fig 4: estimating the Gigabit Ethernet
// model parameters (β from outgoing-conflict sweeps, γo/γi from the fig-4
// scheme) and verifying the calibrated model's predictions per
// communication at 4 MB.
//
// The paper's numbers: β = 0.75, γo = 0.115, γi = 0.036, and the fig-4
// table of measured vs predicted times.
#include <iostream>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "flowsim/fluid_network.hpp"
#include "flowsim/packet.hpp"
#include "graph/schemes.hpp"
#include "models/estimation.hpp"
#include "models/gige.hpp"
#include "mpi/measurement.hpp"
#include "topo/cluster.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace bwshare;

/// MeasureFn backed by the fluid substrate through the §IV-B software.
models::MeasureFn fluid_measure(const topo::ClusterSpec& cluster) {
  return [&cluster](const graph::CommGraph& scheme) {
    const flowsim::FluidRateProvider provider(cluster.network());
    return mpi::measure_times(scheme, cluster, provider);
  };
}

/// MeasureFn backed by the packet-level TCP simulator (finer asymmetries).
models::MeasureFn packet_measure(const topo::ClusterSpec& cluster) {
  return [&cluster](const graph::CommGraph& scheme) {
    return flowsim::measure_scheme_packet(scheme, cluster.network());
  };
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  if (!args.check_flags({"csv"}, std::cerr)) return 2;
  const bool csv = args.get_bool("csv", false);
  const auto cluster = topo::ClusterSpec::ibm_eserver326_gige(8);

  print_banner(std::cout,
               "Fig 3/4 + SV-A — GigE model parameter estimation");

  // --- β from simple outgoing conflicts (fluid substrate). -----------------
  const auto beta_fluid = models::estimate_beta(fluid_measure(cluster));
  const auto beta_packet = models::estimate_beta(packet_measure(cluster), 4e6);
  TextTable beta_table({"degree", "penalty/degree (fluid)",
                        "penalty/degree (packet)"});
  for (size_t k = 0; k < beta_fluid.per_degree.size(); ++k)
    beta_table.add_row({strformat("%zu", k + 2),
                        strformat("%.4f", beta_fluid.per_degree[k]),
                        strformat("%.4f", beta_packet.per_degree[k])});
  bench::emit(csv, "fig4_beta", beta_table);
  std::cout << strformat(
      "  beta estimate: fluid %.4f, packet %.4f   (paper: 0.75)\n",
      beta_fluid.beta, beta_packet.beta);

  // --- γo and γi from the fig-4 scheme. ------------------------------------
  const auto gamma_fluid =
      models::estimate_gammas(fluid_measure(cluster), beta_fluid.beta);
  const auto gamma_packet =
      models::estimate_gammas(packet_measure(cluster), beta_packet.beta);
  TextTable gamma_table({"parameter", "fluid", "packet", "paper"});
  gamma_table.add_row({"gamma_o", strformat("%.4f", gamma_fluid.gamma_o),
                       strformat("%.4f", gamma_packet.gamma_o), "0.115"});
  gamma_table.add_row({"gamma_i", strformat("%.4f", gamma_fluid.gamma_i),
                       strformat("%.4f", gamma_packet.gamma_i), "0.036"});
  gamma_table.add_row({"t_ref(4MB)", human_seconds(gamma_fluid.t_ref),
                       human_seconds(gamma_packet.t_ref), "~0.0477 s"});
  std::cout << "\n";
  bench::emit(csv, "fig4_gamma", gamma_table);

  // --- Fig 4 verification: measured vs predicted per communication. --------
  const models::GigabitEthernetModel paper_model;  // paper parameters
  const auto scheme = graph::schemes::fig4_scheme(4e6);
  const auto cmp = eval::compare_scheme(scheme, cluster, paper_model);

  // The paper's printed table for reference.
  const double paper_tm[] = {0.095, 0.099, 0.118, 0.068, 0.099, 0.103};
  const double paper_tp[] = {0.095, 0.095, 0.113, 0.069, 0.103, 0.103};

  TextTable verify({"comm", "T_m [s]", "T_p [s]", "E_rel [%]",
                    "paper T_m", "paper T_p"});
  for (graph::CommId i = 0; i < scheme.size(); ++i) {
    verify.add_row({std::string(scheme.label(i)),
                    strformat("%.4f", cmp.measured[static_cast<size_t>(i)]),
                    strformat("%.4f", cmp.predicted[static_cast<size_t>(i)]),
                    strformat("%+.1f", cmp.erel[static_cast<size_t>(i)]),
                    strformat("%.3f", paper_tm[i]),
                    strformat("%.3f", paper_tp[i])});
  }
  std::cout << "\n  Fig 4 verification (4 MB messages):\n";
  bench::emit(csv, "fig4_verify", verify);
  std::cout << strformat("  E_abs over the scheme: %.1f %%\n", cmp.eabs);
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
