// Tiny command-line flag parser for the bench and example binaries.
// Supports `--name value`, `--name=value` and boolean `--flag` forms.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace bwshare {

class CliArgs {
 public:
  /// Parse argv. Unrecognized positional arguments are kept in order.
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] long get_int(const std::string& name, long fallback) const;
  /// An integer flag as the int its consumer takes, checked against
  /// [lo, hi] before the narrowing cast: bwshare::Error("flag --<name> must
  /// be in [lo, hi], got <v>") otherwise, so an out-of-range value is an
  /// error instead of a wrapped count.
  [[nodiscard]] int get_int_in(const std::string& name, int fallback, int lo,
                               int hi) const;
  /// A digits-only unsigned flag (seeds): see parse_u64_flag.
  [[nodiscard]] std::uint64_t get_u64(const std::string& name,
                                      std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Flags given on the command line but absent from `allowed`, in
  /// alphabetical order. Lets binaries reject typos ("--node" for
  /// "--nodes") instead of silently ignoring them.
  [[nodiscard]] std::vector<std::string> unknown_flags(
      std::initializer_list<std::string_view> allowed) const;
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// `text` as the value of the unsigned flag --<name>, digits only:
/// strtoull would silently wrap "-1" to 2^64 - 1.
[[nodiscard]] std::uint64_t parse_u64_flag(const std::string& name,
                                           std::string_view text);

}  // namespace bwshare
