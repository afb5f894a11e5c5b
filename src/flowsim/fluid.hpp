// Weighted max-min fair fluid allocation (progressive filling).
//
// The "measured" substrate models a transfer as a fluid flow crossing a set
// of capacity constraints:
//   * its own per-stream cap (single-stream efficiency x link rate),
//   * every directed link on its route,
//   * the host duplex bus at its two endpoints (TX+RX share one IO path).
// Rates are the weighted max-min fair allocation: all flows grow their rate
// proportionally to their weight until a constraint saturates; saturated
// flows freeze and the rest keep growing.
//
// Cost and exactness. Each round of progressive filling needs, per
// unsaturated resource, the load of its frozen members and the weight of its
// active ones — twice: once to find the next saturation time t, once to
// freeze what is tight at t. The solver caches the two sums (and the
// resource's own saturation time) and recomputes a resource only after one
// of its members froze, found through a flow -> resource incidence built
// once per call. It stays bit-identical to rescanning every member twice
// per round, for three reasons:
//   - A resource's sums depend only on its members' frozen flags, the rates
//     of its frozen members and the weights, and a frozen flow's rate never
//     changes again. So the sums of a resource none of whose members froze
//     are what a rescan would compute, and a marked resource is recomputed
//     with the same member-order loop before it is read — never patched
//     incrementally, which would round differently.
//   - The unfrozen capped flows and the unsaturated resources are walked as
//     ascending-index lists compacted in place, so each pass applies the
//     same expressions to the same items in the same order as a scan of all
//     flows and all resources.
//   - Two kinds of resource are never listed, because they cannot change
//     the result: one without members, and one whose single member is
//     capped at or below the resource's capacity. While that member is
//     active the resource's saturation time c / w is no earlier than the
//     member's cap time cap / w, which the same pass has already folded
//     into the minimum; and whenever the resource is tight at t, so is the
//     cap (w t >= c (1 - 1e-12) >= cap (1 - 1e-12)), which freezes the
//     member first. On a host-bus problem this drops most host links.
// tests/flowsim/test_fluid.cpp pins the result bit for bit against a
// full-rescan transcription. A round now costs the live lists plus the
// members of the resources whose membership changed, instead of every
// membership twice.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/arena.hpp"

namespace bwshare::flowsim {

using FlowIndex = int;

/// One capacity constraint over a set of member flows.
struct Resource {
  double capacity = 0.0;
  std::vector<FlowIndex> members;
};

/// Allocation problem: `num_flows` flows with weights, a per-flow rate cap
/// (<= 0 means uncapped) and shared resources.
struct AllocationProblem {
  int num_flows = 0;
  std::vector<double> weights;  // growth weight per flow (default 1)
  std::vector<double> caps;     // per-flow rate cap, <= 0 for none
  std::vector<Resource> resources;
};

/// Non-owning view forms of Resource/AllocationProblem for the allocation-
/// free hot path: callers build the spans in a util::Arena (or any storage
/// outliving the solve) and max_min_rates_into writes rates in place.
struct ResourceView {
  double capacity = 0.0;
  std::span<const FlowIndex> members;
};

struct AllocationProblemView {
  int num_flows = 0;
  std::span<const double> weights;  // empty or one per flow (default 1)
  std::span<const double> caps;     // empty or one per flow, <= 0 for none
  std::span<const ResourceView> resources;
};

/// Weighted max-min fair rates, bytes/s per flow.
/// Throws bwshare::Error on malformed problems (negative capacity, members
/// out of range). Flows not covered by any finite constraint get rate
/// infinity replaced by their cap; it is an error if such a flow is also
/// uncapped.
[[nodiscard]] std::vector<double> max_min_rates(
    const AllocationProblem& problem);

/// View-based core of max_min_rates: writes the allocation into `out`
/// (size == num_flows) using `scratch` for transient state, touching the
/// global allocator only if the arena has to grow. Bit-identical to
/// max_min_rates on the same problem — the vector API is a wrapper over this.
void max_min_rates_into(const AllocationProblemView& problem,
                        util::Arena& scratch, std::span<double> out);

}  // namespace bwshare::flowsim
