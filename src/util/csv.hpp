// Machine-readable output helpers: RFC-4180-style CSV quoting, checked file
// writes, and a JSON rendering of a TextTable's rows. A sweep emitted as CSV
// (TextTable::to_csv) and JSON (rows_to_json) renders from the same rows, so
// both are guaranteed to carry identical values. All formatting is
// caller-side (fields arrive as strings), which keeps the output byte-stable
// across platforms and thread counts.
#pragma once

#include <string>
#include <string_view>

#include "util/table.hpp"

namespace bwshare::util {

/// Quote a CSV field when needed (contains comma, quote, CR or LF);
/// embedded quotes are doubled per RFC 4180.
[[nodiscard]] std::string csv_escape(std::string_view field);

/// Write `content` to `path` (binary, overwriting). Throws bwshare::Error
/// if the file cannot be opened or the write fails/truncates.
void write_text_file(const std::string& path, std::string_view content);

/// Escape a string for inclusion inside a JSON string literal (quotes,
/// backslash, control characters).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Locale-independent fixed-point formatting (std::to_chars): a host
/// application that calls setlocale() must not turn "12.5" into "12,5" in
/// machine-readable output. Shared by the sweep and campaign table writers.
[[nodiscard]] std::string format_fixed(double v, int precision);

/// Render the table as a JSON array of objects keyed by the header. Fields
/// that parse completely as finite numbers are emitted unquoted; everything
/// else becomes a JSON string.
[[nodiscard]] std::string rows_to_json(const TextTable& table);

}  // namespace bwshare::util
