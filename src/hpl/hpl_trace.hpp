// HPL communication-trace generator (paper §VI-D).
//
// The paper runs Linpack "with a communication scheme where each task n send
// message to the task n + 1 for a problem size of 20500" and extracts the
// events with an instrumented MPE. We generate the same event structure
// analytically from the blocked LU algorithm (validated in src/hpl/lu.cpp):
//
//   columns are distributed block-cyclically over P tasks; for each panel k:
//     * the owner factorizes the panel           (compute: panel_flops)
//     * the panel is broadcast along the ring     (send n -> n+1, §VI-D)
//     * every task updates its share of the trailing matrix
//                                                (compute: update share)
//   with HPL's default depth-1 lookahead, so panel k+1's broadcast overlaps
//   panel k's trailing updates. Each task computes at kFlopsPerSecond.
//
// Message size for panel k = rows_below(k) x NB x 8 bytes, exactly HPL's
// panel payload.
#pragma once

#include "sim/events.hpp"

namespace bwshare::hpl {

/// Per-task sustained compute rate, flop/s (2 GHz Opteron era: ~3.2e9).
inline constexpr double kFlopsPerSecond = 3.2e9;

struct HplParams {
  /// Problem size (paper: 20500).
  int n = 20500;
  /// Block size.
  int nb = 120;
  /// Number of MPI tasks.
  int tasks = 16;
  /// Stop after this many panels (0 = full factorization). Keeps benches
  /// fast while preserving the communication pattern.
  int max_panels = 0;
};

/// Build the per-task event trace of one HPL factorization.
[[nodiscard]] sim::AppTrace make_hpl_trace(const HplParams& params);

/// Bytes of one panel broadcast at iteration k (8-byte doubles).
[[nodiscard]] double panel_bytes(const HplParams& params, int k);

/// Number of panel iterations.
[[nodiscard]] int num_panels(const HplParams& params);

}  // namespace bwshare::hpl
