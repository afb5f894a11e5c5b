// The concrete communication schemes used in the paper's figures, rebuilt
// from the figures' arrow geometry (reconstruction notes in DESIGN.md §2).
#pragma once

#include "graph/comm_graph.hpp"

namespace bwshare::graph::schemes {

/// Fig 2 scheme k (1-based, k in [1,6]): the incremental congestion study.
///   S1: a:0->1
///   S2: + b:0->2
///   S3: + c:0->3
///   S4: + d:4->1          (income conflict at node 1)
///   S5: + e:5->0          (income/outgo duplex conflict at node 0)
///   S6: + f:6->3          (weak income conflict at node 3)
/// All messages are `bytes` long (paper: 20 MB).
[[nodiscard]] CommGraph fig2_scheme(int k, double bytes = 20e6);

/// Fig 4 scheme used to estimate/verify the GigE γ parameters (4 MB):
/// a:0->1, b:0->2, c:0->3, d:1->2, e:1->3, f:4->3.
[[nodiscard]] CommGraph fig4_scheme(double bytes = 4e6);

/// Fig 5 graph of the Myrinet state-set example:
/// a:0->1, b:0->2, c:0->3, d:4->1, e:2->1, f:2->5.
[[nodiscard]] CommGraph fig5_scheme(double bytes = 20e6);

/// Fig 7 MK1: directed tree on 8 nodes,
/// a:0->1, b:0->2, c:3->0, d:4->2, e:1->5, f:6->3, g:3->7.
[[nodiscard]] CommGraph mk1_tree(double bytes = 4e6);

/// Fig 7 MK2: orientation of the complete graph on 5 nodes (10 comms):
/// a:0->1, b:0->2, c:0->3, d:0->4, e:2->1, f:1->4, g:1->3, h:4->3,
/// i:3->2, j:4->2.
[[nodiscard]] CommGraph mk2_complete(double bytes = 4e6);

/// Simple outgoing conflict C<-X->: `fan` comms 0->1, 0->2, ..., 0->fan.
/// Used to estimate the GigE β parameter (§V-A).
[[nodiscard]] CommGraph outgoing_fan(int fan, double bytes = 20e6);

/// Simple income conflict C->X<-: comms 1->0, 2->0, ..., fan->0.
[[nodiscard]] CommGraph incoming_fan(int fan, double bytes = 20e6);

}  // namespace bwshare::graph::schemes
