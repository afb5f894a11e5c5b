#include "util/csv.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::util {

std::string csv_escape(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string format_fixed(double v, int precision) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::fixed, precision);
  BWS_ASSERT(res.ec == std::errc(), "to_chars failed");
  return std::string(buf, res.ptr);
}

void write_text_file(const std::string& path, std::string_view content) {
  std::ofstream file(path, std::ios::binary);
  BWS_CHECK(file.good(), "cannot open '" + path + "' for writing");
  file.write(content.data(), static_cast<std::streamsize>(content.size()));
  file.flush();
  BWS_CHECK(file.good(), "failed writing '" + path + "'");
}

namespace {

// A field is emitted bare only when it matches the JSON number grammar
// (RFC 8259 §6) AND parses finite. strtod alone is too permissive — it
// accepts hex ("0x10"), leading '+' and ".5", all invalid JSON.
bool is_json_number(const std::string& field) {
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  size_t i = 0;
  const size_t n = field.size();
  if (i < n && field[i] == '-') ++i;
  if (i == n || !digit(field[i])) return false;
  if (field[i] == '0') {
    ++i;  // no leading zeros: "0" or "0.x", never "01"
  } else {
    while (i < n && digit(field[i])) ++i;
  }
  if (i < n && field[i] == '.') {
    ++i;
    if (i == n || !digit(field[i])) return false;
    while (i < n && digit(field[i])) ++i;
  }
  if (i < n && (field[i] == 'e' || field[i] == 'E')) {
    ++i;
    if (i < n && (field[i] == '+' || field[i] == '-')) ++i;
    if (i == n || !digit(field[i])) return false;
    while (i < n && digit(field[i])) ++i;
  }
  if (i != n) return false;
  return std::isfinite(std::strtod(field.c_str(), nullptr));
}

}  // namespace

std::string rows_to_json(const TextTable& table) {
  std::string out = "[";
  const auto& header = table.headers();
  for (size_t r = 0; r < table.rows().size(); ++r) {
    const auto& row = table.rows()[r];
    out += r == 0 ? "\n  {" : ",\n  {";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i != 0) out += ", ";
      out += '"';
      out += json_escape(header[i]);
      out += "\": ";
      if (is_json_number(row[i])) {
        out += row[i];
      } else {
        out += '"';
        out += json_escape(row[i]);
        out += '"';
      }
    }
    out += "}";
  }
  out += table.rows().empty() ? "]" : "\n]";
  return out;
}

}  // namespace bwshare::util
