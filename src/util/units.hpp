// Unit helpers. All quantities in bwshare use SI base units:
//   time       -> seconds   (double)
//   data size  -> bytes     (double; message sizes are exact in the int range)
//   bandwidth  -> bytes per second (double)
// The helpers below exist so call sites read as `20 * MiB` or
// `gigabits_per_sec(1.0)` instead of bare magic numbers.
#pragma once

namespace bwshare {

inline constexpr double KiB = 1024.0;
inline constexpr double MiB = 1024.0 * 1024.0;
inline constexpr double GiB = 1024.0 * 1024.0 * 1024.0;

inline constexpr double KB = 1e3;
inline constexpr double MB = 1e6;
inline constexpr double GB = 1e9;

/// Convert a link speed quoted in gigabits per second to bytes per second.
[[nodiscard]] constexpr double gigabits_per_sec(double gbps) {
  return gbps * 1e9 / 8.0;
}

inline constexpr double microseconds = 1e-6;
inline constexpr double milliseconds = 1e-3;

}  // namespace bwshare
