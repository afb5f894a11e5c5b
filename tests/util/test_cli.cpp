#include "util/cli.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bwshare {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, SpaceSeparatedValue) {
  const auto args = make({"--size", "20M"});
  EXPECT_EQ(args.get("size", ""), "20M");
}

TEST(Cli, EqualsValue) {
  const auto args = make({"--size=4M"});
  EXPECT_EQ(args.get("size", ""), "4M");
}

TEST(Cli, BooleanFlag) {
  const auto args = make({"--csv"});
  EXPECT_TRUE(args.get_bool("csv", false));
  EXPECT_FALSE(args.get_bool("other", false));
}

TEST(Cli, BooleanFlagSpellings) {
  for (const char* yes : {"true", "1", "yes", "on"})
    EXPECT_TRUE(make({"--csv", yes}).get_bool("csv", false)) << yes;
  for (const char* no : {"false", "0", "no", "off"})
    EXPECT_FALSE(make({"--csv", no}).get_bool("csv", true)) << no;
  EXPECT_THROW((void)make({"--csv", "maybe"}).get_bool("csv", false), Error);
  EXPECT_THROW((void)make({"--csv="}).get_bool("csv", false), Error);
}

TEST(Cli, BooleanBeforeAnotherFlag) {
  const auto args = make({"--verbose", "--size", "3"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_EQ(args.get_int("size", 0), 3);
}

TEST(Cli, IntAndDoubleParsing) {
  const auto args = make({"--n", "42", "--x", "2.5"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5);
}

TEST(Cli, MalformedNumberThrows) {
  const auto args = make({"--n", "abc"});
  EXPECT_THROW((void)args.get_int("n", 0), Error);
  EXPECT_THROW((void)args.get_double("n", 0.0), Error);
}

TEST(Cli, Positional) {
  const auto args = make({"input.scheme", "--csv"});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.scheme");
}

TEST(Cli, Defaults) {
  const auto args = make({});
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, UnknownFlagsReportsFlagsOutsideTheAllowlist) {
  const auto args = make({"--network", "gige", "--nodez", "9", "--csv"});
  EXPECT_EQ(args.unknown_flags({"network", "nodes", "csv"}),
            (std::vector<std::string>{"nodez"}));
}

TEST(Cli, UnknownFlagsEmptyWhenAllAllowed) {
  const auto args = make({"--a", "1", "--b", "2"});
  EXPECT_TRUE(args.unknown_flags({"a", "b", "c"}).empty());
  EXPECT_TRUE(make({}).unknown_flags({}).empty());
}

TEST(Cli, UnknownFlagsSortedAlphabetically) {
  const auto args = make({"--zeta", "1", "--alpha", "2"});
  EXPECT_EQ(args.unknown_flags({}),
            (std::vector<std::string>{"alpha", "zeta"}));
}

}  // namespace
}  // namespace bwshare
