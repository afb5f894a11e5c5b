// Number parsing for every text entry point (trace files, the scheme DSL,
// generator specs, CLI flags, the serve protocol), in place on a
// std::string_view with std::from_chars: no copy, no errno, no locale.
// Call sites keep their own messages by switching on ParseIntStatus (or use
// the throwing wrappers, which phrase errors the way scheme_parser always
// did) and their own range and finiteness checks.
//
// Integers (deliberately tighter than raw strtol):
//   * the whole string must parse — trailing garbage ("12x") is kMalformed;
//   * no leading whitespace (" 5" is kMalformed; callers trim explicitly);
//   * an empty string, a lone sign, and hex/octal prefixes are kMalformed
//     ("0x10" stops at 'x'; base is always 10, "010" is ten);
//   * "+5"/"-5" are accepted, except by the unsigned parser, which accepts
//     digits only — strtoull would wrap "-1" to 2^64-1;
//   * any value outside [min, max], or outside long's range, is
//     kOutOfRange, so casts to int never wrap.
//
// Doubles read strtod's set in the C locale, minus its leading-whitespace
// skip:
//   [+-] ( digits [. digits*] | . digits ) [ (e|E) [+-] digits ]
//   [+-] 0 (x|X) hex-mantissa [ (p|P) [+-] digits ]
//   [+-] ( inf | infinity | nan | nan(chars) )        in any case
// "+5" reads 5 and "0x64" 100; a value beyond double's range reads as
// +-inf and one that rounds below the smallest subnormal as +-0, as strtod
// reads them (plain std::from_chars rejects all four).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace bwshare {

enum class ParseIntStatus {
  kOk,
  kMalformed,   // empty, lone sign, leading whitespace, trailing garbage
  kOutOfRange,  // parsed but outside the requested [min, max] (or long's)
};

/// The C locale's isspace set: ' ', '\t', '\n', '\v', '\f' and '\r'.
[[nodiscard]] constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Parse a base-10 integer into `out`. On kOk, `out` is within [min, max];
/// on any other status `out` is untouched.
[[nodiscard]] ParseIntStatus try_parse_long(
    std::string_view text, long& out,
    long min = std::numeric_limits<long>::min(),
    long max = std::numeric_limits<long>::max());

/// Digits-only unsigned parse (no sign at all: strtoull would silently wrap
/// "-1" into 2^64-1, which is how seeds used to mis-parse).
[[nodiscard]] ParseIntStatus try_parse_u64(std::string_view text,
                                           std::uint64_t& out);

/// Read the number at the front of `text` (grammar above). Returns the
/// number of characters read; 0 means `text` does not start with a number,
/// and `out` is untouched.
[[nodiscard]] size_t parse_double_prefix(std::string_view text, double& out);

/// True, with the value in `out`, if all of `text` is one number; false,
/// with `out` untouched, otherwise.
[[nodiscard]] bool try_parse_double(std::string_view text, double& out);

/// Throwing wrapper: bwshare::Error("<what> must be an integer, got
/// '<text>'") on kMalformed, Error("<what> out of range: '<text>'") on
/// kOutOfRange — the phrasing docs/SCHEME_DSL.md documents.
[[nodiscard]] long parse_long(std::string_view text, const std::string& what,
                              long min = std::numeric_limits<long>::min(),
                              long max = std::numeric_limits<long>::max());

/// parse_long constrained to int's range (plus any tighter [min, max]), so
/// the cast can never wrap.
[[nodiscard]] int parse_int(std::string_view text, const std::string& what,
                            int min = std::numeric_limits<int>::min(),
                            int max = std::numeric_limits<int>::max());

}  // namespace bwshare
