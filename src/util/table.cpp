#include "util/table.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  BWS_CHECK(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  BWS_CHECK(cells.size() == headers_.size(),
            strformat("row has %zu cells, table has %zu columns", cells.size(),
                      headers_.size()));
  rows_.push_back(std::move(cells));
}

std::string TextTable::render() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  const std::string margin(2, ' ');
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << margin;
    for (size_t c = 0; c < cells.size(); ++c) {
      os << cells[c];
      if (c + 1 < cells.size())
        os << std::string(widths[c] - cells[c].size() + 2, ' ');
    }
    os << '\n';
  };
  emit_row(headers_);
  size_t total = margin.size();
  for (size_t c = 0; c < widths.size(); ++c)
    total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << margin << std::string(total - margin.size(), '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TextTable::to_csv() const {
  std::string out;
  const auto append_line = [&out](const std::vector<std::string>& cells) {
    for (size_t c = 0; c < cells.size(); ++c) {
      if (c != 0) out.push_back(',');
      out += util::csv_escape(cells[c]);
    }
    out.push_back('\n');
  };
  append_line(headers_);
  for (const auto& row : rows_) append_line(row);
  return out;
}

void TextTable::write_csv(const std::string& path) const {
  util::write_text_file(path, to_csv());
}

void print_banner(std::ostream& os, const std::string& title) {
  // Pad to 80 columns; a title too long for that still gets four rules
  // (76 - size() would wrap around for titles past 76 characters).
  const size_t rules = title.size() < 72 ? 76 - title.size() : 4;
  os << '\n' << "== " << title << " " << std::string(rules, '=') << '\n';
}

}  // namespace bwshare
