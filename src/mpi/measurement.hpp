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
// simultaneously. The software returns the times T_i; T_ref and P_i are
// left to the caller, who measures T_ref as a one-comm scheme of its own
// (models::measure_reference_time).
#pragma once

#include <vector>

#include "flowsim/fluid_network.hpp"
#include "graph/comm_graph.hpp"
#include "topo/cluster.hpp"

namespace bwshare::mpi {

/// Run the measurement software for `scheme` on `cluster`, with transfer
/// rates supplied by `provider` (fluid substrate or a model): the mean
/// sender time T_i of each communication over the measured rounds, in
/// graph order. A MeasureFn (models/estimation.hpp signature) once bound to
/// a cluster and a provider.
[[nodiscard]] std::vector<double> measure_times(
    const graph::CommGraph& scheme, const topo::ClusterSpec& cluster,
    const flowsim::RateProvider& provider);

}  // namespace bwshare::mpi
