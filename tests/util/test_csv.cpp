#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace bwshare::util {
namespace {

TEST(CsvEscape, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
  EXPECT_EQ(csv_escape("1.25"), "1.25");
}

TEST(CsvEscape, QuotesFieldsWithSeparators) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// The CSV writer is TextTable's CSV side: the sweep and campaign reports
// render their CSV (and, through rows_to_json, their JSON) from one table.

TEST(CsvWriter, RendersHeaderAndRows) {
  TextTable csv({"name", "value"});
  csv.add_row({"alpha", "1"});
  csv.add_row({"with,comma", "2"});
  EXPECT_EQ(csv.to_csv(), "name,value\nalpha,1\n\"with,comma\",2\n");
  EXPECT_EQ(csv.num_rows(), 2u);
}

TEST(CsvWriter, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), Error);
}

TEST(CsvWriter, RowWidthMismatchThrows) {
  TextTable csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"only-one"}), Error);
  EXPECT_THROW(csv.add_row({"1", "2", "3"}), Error);
}

TEST(CsvWriter, WriteFileRoundTrips) {
  TextTable csv({"k", "v"});
  csv.add_row({"x", "1"});
  const std::string path = testing::TempDir() + "bwshare_test_csv.csv";
  csv.write_csv(path);
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), csv.to_csv());
}

TEST(WriteTextFile, RoundTripsAndErrorsOnBadPath) {
  const std::string path = testing::TempDir() + "bwshare_test_text.txt";
  write_text_file(path, "line1\nline2");
  std::ifstream file(path, std::ios::binary);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), "line1\nline2");
  EXPECT_THROW(write_text_file("/nonexistent-dir/x.txt", "data"), Error);
}

TEST(JsonEscape, EscapesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonEscape, ShortFormsForCommonControlCharacters) {
  EXPECT_EQ(json_escape("a\bb\fc\nd\re"), "a\\bb\\fc\\nd\\re");
  // Other C0 controls take the \u form; DEL and UTF-8 bytes pass through.
  EXPECT_EQ(json_escape("\x1f"), "\\u001f");
  EXPECT_EQ(json_escape("\x7f"), "\x7f");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

TEST(RowsToJson, NumbersUnquotedStringsQuoted) {
  TextTable csv({"name", "value", "note"});
  csv.add_row({"alpha", "1.5", "ok"});
  csv.add_row({"beta", "-2e3", "has \"quote\""});
  EXPECT_EQ(rows_to_json(csv),
            "[\n"
            "  {\"name\": \"alpha\", \"value\": 1.5, \"note\": \"ok\"},\n"
            "  {\"name\": \"beta\", \"value\": -2e3, "
            "\"note\": \"has \\\"quote\\\"\"}\n"
            "]");
}

TEST(RowsToJson, EmptyTableIsEmptyArray) {
  TextTable csv({"a"});
  EXPECT_EQ(rows_to_json(csv), "[]");
}

TEST(RowsToJson, InfinityAndEmptyAreStrings) {
  TextTable csv({"v"});
  csv.add_row({"inf"});
  csv.add_row({""});
  EXPECT_EQ(rows_to_json(csv),
            "[\n  {\"v\": \"inf\"},\n  {\"v\": \"\"}\n]");
}

TEST(RowsToJson, StrtodAccepteesThatAreNotJsonNumbersStayQuoted) {
  // strtod consumes all of these, but none is a valid RFC 8259 number.
  TextTable csv({"v"});
  for (const char* field : {"0x10", "+1", ".5", "01", "1.", "1e", "-"}) {
    csv.add_row({field});
  }
  const std::string json = rows_to_json(csv);
  EXPECT_NE(json.find("\"0x10\""), std::string::npos);
  EXPECT_NE(json.find("\"+1\""), std::string::npos);
  EXPECT_NE(json.find("\".5\""), std::string::npos);
  EXPECT_NE(json.find("\"01\""), std::string::npos);
  EXPECT_NE(json.find("\"1.\""), std::string::npos);
  EXPECT_NE(json.find("\"1e\""), std::string::npos);
  EXPECT_NE(json.find("\"-\""), std::string::npos);
}

TEST(RowsToJson, ValidJsonNumbersStayBare) {
  TextTable csv({"v"});
  for (const char* field : {"0", "-0.5", "10", "2.25", "1e9", "-3E-2"}) {
    csv.add_row({field});
  }
  const std::string json = rows_to_json(csv);
  for (const char* token :
       {"\"v\": 0}", "\"v\": -0.5}", "\"v\": 10}", "\"v\": 2.25}",
        "\"v\": 1e9}", "\"v\": -3E-2}"}) {
    EXPECT_NE(json.find(token), std::string::npos) << json;
  }
}

}  // namespace
}  // namespace bwshare::util
