#include "util/parse.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

#include "util/error.hpp"

namespace bwshare {

namespace {

[[nodiscard]] bool is_digit(char c) { return c >= '0' && c <= '9'; }

[[nodiscard]] bool is_hex_digit(char c) {
  return is_digit(c) || ((c | 0x20) >= 'a' && (c | 0x20) <= 'f');
}

/// Whether the number in [first, last) — a decimal or, after "0x", a hex
/// mantissa with an optional exponent, that from_chars found out of range —
/// lies above double's range rather than below it. Out-of-range numbers
/// sit hundreds of orders of magnitude from 1, so the position of the first
/// significant digit plus the exponent decides it.
[[nodiscard]] bool beyond_max(const char* first, const char* last, bool hex) {
  const auto digit = [hex](char c) { return hex ? is_hex_digit(c) : is_digit(c); };
  long magnitude = 0;  // digits from the first significant one to the point
  bool significant = false;
  const char* p = first;
  for (; p != last && digit(*p); ++p) {
    significant = significant || *p != '0';
    if (significant) ++magnitude;
  }
  if (p != last && *p == '.') {
    for (++p; p != last && digit(*p); ++p) {
      significant = significant || *p != '0';
      if (!significant) --magnitude;
    }
  }
  long exponent = 0;
  if (p != last && (*p == 'e' || *p == 'E' || *p == 'p' || *p == 'P')) {
    ++p;
    const bool negative = p != last && *p == '-';
    if (p != last && (*p == '+' || *p == '-')) ++p;
    for (; p != last && is_digit(*p); ++p)
      exponent = std::min(exponent * 10 + (*p - '0'), 1'000'000'000L);
    if (negative) exponent = -exponent;
  }
  return (hex ? 4 * magnitude : magnitude) + exponent > 0;
}

}  // namespace

ParseIntStatus try_parse_long(std::string_view text, long& out, long min,
                              long max) {
  // The only accepted shape is [+-]?digits; from_chars itself takes no '+'.
  const size_t sign = !text.empty() && (text[0] == '+' || text[0] == '-');
  if (sign == text.size() || !is_digit(text[sign]))
    return ParseIntStatus::kMalformed;
  const char* const last = text.data() + text.size();
  long v = 0;
  const auto [end, ec] =
      std::from_chars(text.data() + (text[0] == '+'), last, v);
  if (end != last) return ParseIntStatus::kMalformed;
  if (ec == std::errc::result_out_of_range || v < min || v > max)
    return ParseIntStatus::kOutOfRange;
  out = v;
  return ParseIntStatus::kOk;
}

ParseIntStatus try_parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return ParseIntStatus::kMalformed;
  for (const char c : text)
    if (!is_digit(c)) return ParseIntStatus::kMalformed;
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec == std::errc::result_out_of_range) return ParseIntStatus::kOutOfRange;
  out = v;
  return ParseIntStatus::kOk;
}

size_t parse_double_prefix(std::string_view text, double& out) {
  const char* const first = text.data();
  const char* const last = first + text.size();
  const char* p = first;
  const bool negative = p != last && *p == '-';
  if (p != last && (*p == '+' || *p == '-')) ++p;
  // The sign is taken; from_chars would read a second '-' as one.
  if (p == last || *p == '+' || *p == '-') return 0;
  // "0x" counts as a prefix only before a hex digit: "0xg" reads as 0.
  const bool hex = last - p > 2 && p[0] == '0' && (p[1] | 0x20) == 'x' &&
                   (is_hex_digit(p[2]) ||
                    (p[2] == '.' && last - p > 3 && is_hex_digit(p[3])));
  const char* const digits = hex ? p + 2 : p;
  double v = 0.0;
  const auto [end, ec] = std::from_chars(
      digits, last, v,
      hex ? std::chars_format::hex : std::chars_format::general);
  if (ec == std::errc::invalid_argument) return 0;
  if (ec == std::errc::result_out_of_range)
    v = beyond_max(digits, end, hex) ? HUGE_VAL : 0.0;
  out = negative ? -v : v;
  return static_cast<size_t>(end - first);
}

bool try_parse_double(std::string_view text, double& out) {
  double v = 0.0;
  if (text.empty() || parse_double_prefix(text, v) != text.size()) return false;
  out = v;
  return true;
}

long parse_long(std::string_view text, const std::string& what, long min,
                long max) {
  long v = 0;
  switch (try_parse_long(text, v, min, max)) {
    case ParseIntStatus::kOk:
      return v;
    case ParseIntStatus::kMalformed:
      BWS_THROW(what + " must be an integer, got '" + std::string(text) +
                "'");
    case ParseIntStatus::kOutOfRange:
      BWS_THROW(what + " out of range: '" + std::string(text) + "'");
  }
  BWS_THROW("unreachable");  // GCC: not all control paths visibly return
}

int parse_int(std::string_view text, const std::string& what, int min,
              int max) {
  return static_cast<int>(
      parse_long(text, what, static_cast<long>(min), static_cast<long>(max)));
}

}  // namespace bwshare
