// The one ceiling on counts read from user input that size an allocation.
#pragma once

namespace bwshare {

/// Largest number of cluster nodes, cores per node or trace tasks that any
/// input — a scheme, a trace, a CLI flag, a sweep shape or a served query —
/// may declare. It is checked where the allocation is sized
/// (topo::ClusterSpec::uniform, sim::AppTrace), and the trace and scheme
/// parsers report it against the offending line; without it a one-line file
/// asking for 2^31 tasks aborts the process with std::bad_alloc.
///
/// The same ceiling bounds what a count only implies: the expected length of
/// a churn or background script (rate * horizon, graph::ChurnSpec and
/// graph::BackgroundSpec), which the generators build before the replay
/// starts, and the core slots a Random placement shuffles
/// (sim::make_placement), whose total is nodes * cores.
inline constexpr int kMaxCount = 1'000'000;

}  // namespace bwshare
