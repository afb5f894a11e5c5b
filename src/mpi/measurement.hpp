// The paper's §IV-B measurement software, reimplemented over the simulator:
//
//   "The parameters of the software are: iteration number of MPI_SEND; a
//    referential time (one 20 MB MPI_Send node 0 -> node 1 with nothing
//    else); a description of the communication task scheme. At the end, the
//    software gives us the penalty P_i = T_i / T_ref for each task."
//
// A communication scheme (graph::CommGraph over cluster nodes) is turned
// into an MPI job: one sender and one receiver task per communication,
// pinned to the scheme's nodes; one warm-up round precedes three measured
// rounds, and a barrier separates iterations so every round starts
// simultaneously. T_ref is one 20 MB message sent alone; a comm of another
// size is compared with one message of its own size sent alone.
#pragma once

#include <vector>

#include "flowsim/fluid_network.hpp"
#include "graph/comm_graph.hpp"
#include "topo/cluster.hpp"

namespace bwshare::mpi {

struct PenaltyMeasurement {
  /// Referential time T_ref of one 20 MB message.
  double t_ref = 0.0;
  /// Per-communication mean sender time T_i (graph order).
  std::vector<double> times;
  /// Per-communication penalty P_i = T_i / t_ref_i, where t_ref_i is the
  /// referential time scaled to comm i's size.
  std::vector<double> penalties;
};

/// Run the measurement software for `scheme` on `cluster`, with transfer
/// rates supplied by `provider` (fluid substrate or a model).
[[nodiscard]] PenaltyMeasurement measure_scheme_penalties(
    const graph::CommGraph& scheme, const topo::ClusterSpec& cluster,
    const flowsim::RateProvider& provider);

/// A MeasureFn (models/estimation.hpp signature) backed by this software.
[[nodiscard]] std::vector<double> measure_times(
    const graph::CommGraph& scheme, const topo::ClusterSpec& cluster,
    const flowsim::RateProvider& provider);

}  // namespace bwshare::mpi
