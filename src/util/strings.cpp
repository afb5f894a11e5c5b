#include "util/strings.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/units.hpp"

namespace bwshare {

std::string vstrformat(const char* fmt, va_list args) {
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
  va_end(args_copy);
  if (needed < 0) return {};
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::string out = vstrformat(fmt, args);
  va_end(args);
  return out;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string human_bytes(double bytes) {
  const double abs = std::fabs(bytes);
  if (abs >= GiB) return strformat("%.3g GiB", bytes / GiB);
  if (abs >= MiB) return strformat("%.3g MiB", bytes / MiB);
  if (abs >= KiB) return strformat("%.3g KiB", bytes / KiB);
  return strformat("%.0f B", bytes);
}

std::string human_seconds(double seconds) {
  const double abs = std::fabs(seconds);
  if (abs >= 1.0) return strformat("%.3g s", seconds);
  if (abs >= 1e-3) return strformat("%.3g ms", seconds * 1e3);
  if (abs >= 1e-6) return strformat("%.3g us", seconds * 1e6);
  return strformat("%.3g ns", seconds * 1e9);
}

double parse_size(std::string_view text) {
  const std::string_view t = trim(text);
  BWS_CHECK(!t.empty(), "empty size literal");
  double value = 0.0;
  const size_t used = parse_double_prefix(t, value);
  BWS_CHECK(used > 0, "malformed size literal: '" + std::string(t) + "'");
  // A NUL byte ends the suffix: size literals keep the set of spellings
  // they accepted as C strings (tests/util/test_number_grammar.cpp).
  std::string_view suffix = t.substr(used);
  suffix = trim(suffix.substr(0, suffix.find('\0')));
  if (suffix.empty()) return value;
  if (suffix == "k" || suffix == "K" || suffix == "KB") return value * KB;
  if (suffix == "M" || suffix == "MB") return value * MB;
  if (suffix == "G" || suffix == "GB") return value * GB;
  if (suffix == "KiB") return value * KiB;
  if (suffix == "MiB") return value * MiB;
  if (suffix == "GiB") return value * GiB;
  if (suffix == "B") return value;
  BWS_THROW("unknown size suffix '" + std::string(suffix) + "' in '" +
            std::string(t) + "'");
}

}  // namespace bwshare
