// Small string utilities: printf-style formatting into std::string (GCC 12
// lacks std::format), splitting, trimming and human-readable quantities.
#pragma once

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace bwshare {

/// printf-style formatting returning a std::string.
[[nodiscard]] std::string strformat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// vprintf-style variant of strformat().
[[nodiscard]] std::string vstrformat(const char* fmt, va_list args);

/// Split `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Strip leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Render a byte count as "20 MB", "1.5 GiB", ... (power-of-two units).
[[nodiscard]] std::string human_bytes(double bytes);

/// Render a duration in seconds as "12.3 ms", "4.56 s", ...
[[nodiscard]] std::string human_seconds(double seconds);

/// Parse a size with optional suffix: "20M", "4MiB", "512k", "1G", "64".
/// Decimal suffixes k/M/G are powers of ten; KiB/MiB/GiB are powers of two.
/// The number is read with strtod's grammar (util/parse.hpp), so "0x10M"
/// and "1e-400" parse; the value is not range-checked. Throws
/// bwshare::Error on malformed input or an unknown suffix.
[[nodiscard]] double parse_size(std::string_view text);

}  // namespace bwshare
