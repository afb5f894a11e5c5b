#include "util/cli.hpp"

#include <ostream>

#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace bwshare {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` if the next token is not itself a flag, else boolean.
    if (i + 1 < argc && !starts_with(argv[i + 1], "--")) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

std::vector<std::string> CliArgs::unknown_flags(
    std::initializer_list<std::string_view> allowed) const {
  std::vector<std::string> unknown;
  for (const auto& entry : values_) {
    bool found = false;
    for (const auto candidate : allowed) {
      if (entry.first == candidate) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(entry.first);
  }
  return unknown;  // values_ is an ordered map, so already alphabetical
}

bool CliArgs::check_flags(std::initializer_list<std::string_view> allowed,
                          std::ostream& err) const {
  const auto unknown = unknown_flags(allowed);
  if (unknown.empty()) return true;
  err << "error: unknown flag --" << unknown.front() << " (flags: ";
  if (allowed.size() == 0) err << "none";
  const char* sep = "";
  for (const auto flag : allowed) {
    err << sep << "--" << flag;
    sep = ", ";
  }
  err << ")\n";
  return false;
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  long v = 0;
  switch (try_parse_long(it->second, v)) {
    case ParseIntStatus::kOk:
      return v;
    case ParseIntStatus::kOutOfRange:
      BWS_THROW("flag --" + name + " integer out of range: '" + it->second +
                "'");
    case ParseIntStatus::kMalformed:
      break;
  }
  BWS_THROW("flag --" + name + " expects an integer, got '" + it->second +
            "'");
}

int CliArgs::get_int_in(const std::string& name, int fallback, int lo,
                        int hi) const {
  const long v = get_int(name, fallback);
  BWS_CHECK(v >= lo && v <= hi,
            strformat("flag --%s must be in [%d, %d], got %ld", name.c_str(),
                      lo, hi, v));
  return static_cast<int>(v);
}

std::uint64_t CliArgs::get_u64(const std::string& name,
                               std::uint64_t fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : parse_u64_flag(name, it->second);
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  // strtod's reading of a flag: leading whitespace is skipped and an empty
  // value reads as 0 (pinned in tests/util/test_number_grammar.cpp).
  std::string_view text = it->second;
  while (!text.empty() && is_space(text.front())) text.remove_prefix(1);
  double v = 0.0;
  BWS_CHECK(it->second.empty() || try_parse_double(text, v),
            "flag --" + name + " expects a number, got '" + it->second + "'");
  return v;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  BWS_THROW("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::uint64_t parse_u64_flag(const std::string& name, std::string_view text) {
  std::uint64_t v = 0;
  const auto st = try_parse_u64(text, v);
  BWS_CHECK(st != ParseIntStatus::kMalformed,
            "flag --" + name + " expects a non-negative integer, got '" +
                std::string(text) + "'");
  BWS_CHECK(st == ParseIntStatus::kOk,
            "flag --" + name + " integer out of range: '" + std::string(text) +
                "'");
  return v;
}

}  // namespace bwshare
