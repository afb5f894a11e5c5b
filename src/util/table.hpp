// Aligned text tables and CSV output. The bench harness prints every
// reproduced paper table through TextTable so rows line up with the paper's
// layout, and can mirror the same rows to CSV for plotting.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bwshare {

/// A simple row/column table with aligned text rendering.
class TextTable {
 public:
  /// Create a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] size_t num_rows() const { return rows_.size(); }

  /// Render with padded columns, a header underline and `indent` spaces of
  /// left margin.
  [[nodiscard]] std::string render(int indent = 2) const;

  /// Render as RFC-4180-ish CSV (quotes cells containing commas/quotes).
  [[nodiscard]] std::string to_csv() const;

  /// Write CSV to a file; throws bwshare::Error on I/O failure.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a section banner used by the bench binaries.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace bwshare
