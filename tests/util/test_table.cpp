#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace bwshare {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string out = t.render();
  // Header first, underline second, rows afterwards; two spaces of margin.
  std::istringstream is(out);
  std::string line;
  std::getline(is, line);
  EXPECT_NE(line.find("name"), std::string::npos);
  EXPECT_NE(line.find("value"), std::string::npos);
  std::getline(is, line);
  EXPECT_EQ(line.find_first_not_of('-', 2), std::string::npos);
  EXPECT_EQ(line.substr(0, 3), "  -");
}

TEST(TextTable, RowArityIsChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, CsvEscaping) {
  TextTable t({"a"});
  t.add_row({"plain"});
  t.add_row({"with,comma"});
  t.add_row({"with\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"with\"\"quote\""), std::string::npos);
}

TEST(TextTable, WriteCsvRoundTrip) {
  TextTable t({"x", "y"});
  t.add_row({"1", "2"});
  const std::string path = ::testing::TempDir() + "/bwshare_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::remove(path.c_str());
}

TEST(TextTable, WriteCsvBadPathThrows) {
  TextTable t({"x"});
  EXPECT_THROW(t.write_csv("/nonexistent-dir/nope.csv"), Error);
}

TEST(TextTable, RenderPadsColumnsToTheWidestCell) {
  TextTable t({"id", "name"});
  t.add_row({"1", "alpha"});
  t.add_row({"22", "b"});
  EXPECT_EQ(t.num_rows(), 2u);
  // Columns are two spaces apart, the last cell is not padded, and the
  // underline spans the columns but not the margin.
  EXPECT_EQ(t.render(),
            "  id  name\n"
            "  ---------\n"
            "  1   alpha\n"
            "  22  b\n");
}

TEST(TextTable, PrintBannerPadsTitlesToEightyColumns) {
  std::ostringstream os;
  print_banner(os, "Fig 2");
  EXPECT_EQ(os.str(), "\n== Fig 2 " + std::string(71, '=') + "\n");
}

TEST(TextTable, PrintBannerKeepsFourRulesAfterALongTitle) {
  // Past 72 characters the title no longer fits in 80 columns; the banner
  // grows instead of wrapping the rule count around.
  for (const size_t length : {72u, 76u, 77u, 120u}) {
    SCOPED_TRACE(length);
    const std::string title(length, 't');
    std::ostringstream os;
    print_banner(os, title);
    EXPECT_EQ(os.str(), "\n== " + title + " ====\n");
  }
}

}  // namespace
}  // namespace bwshare
