// Text serialization of application traces (our MPE-substitute; the paper
// instrumented MPICH's MPE library to extract HPL's events, §VI-D).
//
// Format: one statement per line, '#' comments, fields separated by any of
// isspace's characters (so CRLF files read unchanged):
//   tasks 4
//   0 compute 0.52
//   0 send 1 4000000
//   1 recv 0 4000000
//   1 recv any 4000000
//   * barrier            # every task
//
// Numbers: task ids, peers and the task count are base-10 integers with an
// optional sign ("+3", "007"). Durations and sizes are read with strtod's
// grammar (util/parse.hpp): "+5", ".5", "5.", "1E+3", hex "0x64", and
// "1e-400" (reads as 0) are all accepted; each must then be finite and
// non-negative, so "inf", "nan" and "1e999" are rejected. A trace declares
// at most kMaxCount (util/limits.hpp, 1000000) tasks.
//
// The writer prints durations as "%.9g" and sizes as "%.0f" would (through
// std::to_chars), so a written trace reads back to the same text.
#pragma once

#include <string>
#include <string_view>

#include "sim/events.hpp"

namespace bwshare::sim {

[[nodiscard]] std::string write_trace(const AppTrace& trace);
[[nodiscard]] AppTrace read_trace(std::string_view text);

void write_trace_file(const AppTrace& trace, const std::string& path);
/// Reads the whole file (a pipe works too), then read_trace(); errors are
/// prefixed with the path.
[[nodiscard]] AppTrace read_trace_file(const std::string& path);

}  // namespace bwshare::sim
