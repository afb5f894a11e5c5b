#include "util/strings.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/units.hpp"

namespace bwshare {
namespace {

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("no-op"), "no-op");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

TEST(Strings, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(2048), "2 KiB");
  EXPECT_EQ(human_bytes(3.5 * MiB), "3.5 MiB");
}

TEST(Strings, HumanSeconds) {
  EXPECT_EQ(human_seconds(2.5), "2.5 s");
  EXPECT_EQ(human_seconds(0.012), "12 ms");
  EXPECT_EQ(human_seconds(3e-6), "3 us");
}

TEST(Strings, ParseSizePlain) {
  EXPECT_DOUBLE_EQ(parse_size("64"), 64.0);
  EXPECT_DOUBLE_EQ(parse_size("64B"), 64.0);
}

TEST(Strings, ParseSizeDecimalSuffixes) {
  EXPECT_DOUBLE_EQ(parse_size("20M"), 20e6);
  EXPECT_DOUBLE_EQ(parse_size("1.5G"), 1.5e9);
  EXPECT_DOUBLE_EQ(parse_size("512k"), 512e3);
}

TEST(Strings, ParseSizeBinarySuffixes) {
  EXPECT_DOUBLE_EQ(parse_size("4MiB"), 4.0 * MiB);
  EXPECT_DOUBLE_EQ(parse_size("2KiB"), 2048.0);
  EXPECT_DOUBLE_EQ(parse_size("1GiB"), GiB);
}

TEST(Strings, ParseSizeRejectsGarbage) {
  EXPECT_THROW((void)parse_size(""), Error);
  EXPECT_THROW((void)parse_size("abc"), Error);
  EXPECT_THROW((void)parse_size("12XB"), Error);
}

}  // namespace
}  // namespace bwshare
