// Ablation A1 — design-choice check: the experiments use the fluid max-min
// substrate as their "measured" side; this bench quantifies how closely the
// packet-level flow-control simulators (TCP+pause, Stop&Go wormhole,
// credit-based) agree with it on the canonical conflicts.
#include <iostream>

#include "bench_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "flowsim/packet.hpp"
#include "graph/schemes.hpp"
#include "stats/descriptive.hpp"
#include "topo/network.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

int main(int argc, char** argv) try {
  using namespace bwshare;
  const CliArgs args(argc, argv);
  if (!args.check_flags({"size", "csv"}, std::cerr)) return 2;
  const double bytes = parse_size(args.get("size", "2M"));

  print_banner(std::cout,
               "Ablation - fluid substrate vs packet-level simulators");
  std::cout << "  Message size " << human_bytes(bytes)
            << "; values are penalties P_i.\n";

  struct Case {
    std::string name;
    graph::CommGraph g;
  };
  std::vector<Case> cases;
  cases.push_back({"fan-out 2", graph::schemes::outgoing_fan(2, bytes)});
  cases.push_back({"fan-out 3", graph::schemes::outgoing_fan(3, bytes)});
  cases.push_back({"fan-in 3", graph::schemes::incoming_fan(3, bytes)});
  for (int s = 4; s <= 6; ++s)
    cases.push_back({strformat("fig2 S%d", s),
                     graph::schemes::fig2_scheme(s, bytes)});
  cases.push_back({"mk1 tree", graph::schemes::mk1_tree(bytes)});

  for (const auto& cal :
       {topo::gigabit_ethernet_calibration(), topo::myrinet2000_calibration(),
        topo::infiniband_calibration()}) {
    TextTable table({"scheme", "comm", "fluid", "packet", "ratio"});
    stats::Accumulator agreement;
    for (const auto& c : cases) {
      const auto fluid = flowsim::measure_penalties(c.g, cal);
      const auto packet = flowsim::measure_penalties_packet(c.g, cal);
      for (graph::CommId i = 0; i < c.g.size(); ++i) {
        const double ratio = packet[static_cast<size_t>(i)] /
                             fluid[static_cast<size_t>(i)];
        agreement.add(ratio);
        table.add_row({c.name, std::string(c.g.label(i)),
                       strformat("%.2f", fluid[static_cast<size_t>(i)]),
                       strformat("%.2f", packet[static_cast<size_t>(i)]),
                       strformat("%.3f", ratio)});
      }
    }
    std::cout << "\n  " << to_string(cal.tech) << ":\n";
    bench::emit(args, "abl_fluid_vs_packet_" + to_string(cal.tech), table);
    std::cout << strformat(
        "  packet/fluid ratio: mean %.3f, min %.3f, max %.3f\n",
        agreement.mean(), agreement.min(), agreement.max());
  }
  return 0;
} catch (const bwshare::Error& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
