// Experiment E1 — paper Fig 2: "Result of penalties depending of network".
//
// Runs the six incremental communication schemes through the §IV-B
// measurement software on the three interconnect substrates and prints the
// per-communication penalties next to the values the paper measured on its
// physical clusters. Shapes to check: GigE shares best (1.5/2.25 per
// stream), Myrinet serializes (1.9/2.8), InfiniBand sits between
// (1.725/2.61); scheme 5's income/outgo conflict at node 0 inflates the
// three outgoing penalties; scheme 6's f stays near 1.
#include <array>
#include <iostream>
#include <map>

#include "bench_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/schemes.hpp"
#include "topo/network.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace {

using namespace bwshare;

// Paper fig-2 values, keyed by scheme and comm label.
const std::map<int, std::map<std::string, std::array<double, 3>>> kPaper = {
    // {scheme, {label, {GigE, Myrinet, Infiniband}}}
    {1, {{"a", {1.0, 1.0, 1.0}}}},
    {2, {{"a", {1.5, 1.9, 1.725}}, {"b", {1.5, 1.9, 1.725}}}},
    {3,
     {{"a", {2.25, 2.8, 2.61}},
      {"b", {2.25, 2.8, 2.61}},
      {"c", {2.25, 2.8, 2.61}}}},
    {4,
     {{"a", {2.15, 2.8, 2.61}},
      {"b", {2.15, 2.8, 2.61}},
      {"c", {2.15, 2.8, 2.61}},
      {"d", {1.15, 1.45, 1.14}}}},
    {5,
     {{"a", {4.4, 4.4, 3.663}},
      {"b", {2.6, 4.2, 3.66}},
      {"c", {2.6, 4.2, 3.66}},
      {"d", {2.6, 2.5, 2.035}},
      {"e", {2.6, 2.5, 2.035}}}},
    {6,
     {{"a", {4.4, 4.5, 3.935}},
      {"b", {2.0, 4.5, 3.935}},
      {"c", {3.3, 4.5, 3.935}},
      {"d", {2.6, 2.5, 1.995}},
      {"e", {2.6, 2.5, 1.995}},
      {"f", {1.4, 1.3, 1.01}}}},
};

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  if (!args.check_flags({"size", "csv"}, std::cerr)) return 2;
  const double bytes = parse_size(args.get("size", "20M"));

  print_banner(std::cout, "Fig 2 — penalties per scheme and interconnect "
                          "(substrate vs paper)");
  std::cout << "  Message size " << human_bytes(bytes)
            << "; penalties in the saturated regime (P_i = T_i/T_ref).\n";

  const auto networks = {topo::gigabit_ethernet_calibration(),
                         topo::myrinet2000_calibration(),
                         topo::infiniband_calibration()};

  for (int scheme = 1; scheme <= 6; ++scheme) {
    const auto g = graph::schemes::fig2_scheme(scheme, bytes);
    TextTable table({"comm", "arc", "GigE", "paper", "Myrinet", "paper",
                     "Infiniband", "paper"});
    // Substrate penalties per network.
    std::vector<std::vector<double>> penalties;
    for (const auto& cal : networks)
      penalties.push_back(flowsim::saturated_penalties(g, cal));

    for (graph::CommId i = 0; i < g.size(); ++i) {
      const auto& c = g.comm(i);
      const std::string label(g.label(i));
      const auto& paper_row = kPaper.at(scheme).at(label);
      table.add_row({label, strformat("%d->%d", c.src, c.dst),
                     strformat("%.2f", penalties[0][static_cast<size_t>(i)]),
                     strformat("%.2f", paper_row[0]),
                     strformat("%.2f", penalties[1][static_cast<size_t>(i)]),
                     strformat("%.2f", paper_row[1]),
                     strformat("%.2f", penalties[2][static_cast<size_t>(i)]),
                     strformat("%.2f", paper_row[2])});
    }
    std::cout << "\n  Scheme S" << scheme << ":\n";
    bench::emit(args, strformat("fig2_s%d", scheme), table);
  }

  std::cout << "\n  Note: S5/S6 'd' diverges from the paper (see DESIGN.md "
               "S2 on the arrow-geometry reconstruction).\n";
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
