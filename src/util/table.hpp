// Tables of string cells: aligned text and CSV output. The bench harness
// prints every reproduced paper table through TextTable so rows line up with
// the paper's layout, and can mirror the same rows to CSV for plotting; the
// sweep and campaign reports render their CSV and JSON (util::rows_to_json)
// from one TextTable, so both carry identical values.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace bwshare {

/// A header plus rows of string cells.
class TextTable {
 public:
  /// Create a table with the given column headers.
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] size_t num_rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<std::string>& headers() const {
    return headers_;
  }
  [[nodiscard]] const std::vector<std::vector<std::string>>& rows() const {
    return rows_;
  }

  /// Render with padded columns, a header underline and two spaces of left
  /// margin.
  [[nodiscard]] std::string render() const;

  /// Header line + one line per row, '\n' line endings; RFC-4180-style
  /// quoting (util::csv_escape).
  [[nodiscard]] std::string to_csv() const;

  /// Write to_csv() to a file through util::write_text_file; throws
  /// bwshare::Error if the file cannot be opened or the write fails.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Print a section banner used by the bench binaries.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace bwshare
