#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <sstream>
#include <string>

#include "util/error.hpp"

namespace bwshare {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

/// The message of the bwshare::Error `fn` throws ("" if it throws none).
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// `haystack` contains `needle`.
bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
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

TEST(Cli, CheckFlagsNamesTheFirstUnknownFlagAndTheAllowedOnes) {
  std::ostringstream err;
  EXPECT_TRUE(make({"--size", "4M", "--csv"})
                  .check_flags({"size", "threads", "csv"}, err));
  EXPECT_EQ(err.str(), "");
  EXPECT_FALSE(make({"--zeta", "1", "--no-such-flag", "1"})
                   .check_flags({"size", "threads", "csv"}, err));
  EXPECT_EQ(err.str(),
            "error: unknown flag --no-such-flag (flags: --size, --threads, "
            "--csv)\n");
  err.str("");
  EXPECT_FALSE(make({"--x"}).check_flags({}, err));
  EXPECT_EQ(err.str(), "error: unknown flag --x (flags: none)\n");
}

TEST(Cli, IntInRangeAcceptsBothBoundsAndFallsBackWhenAbsent) {
  EXPECT_EQ(make({"--threads", "0"}).get_int_in("threads", 7, 0, 4096), 0);
  EXPECT_EQ(make({"--threads", "4096"}).get_int_in("threads", 7, 0, 4096),
            4096);
  EXPECT_EQ(make({"--threads=+12"}).get_int_in("threads", 7, 0, 4096), 12);
  EXPECT_EQ(make({}).get_int_in("threads", 7, 0, 4096), 7);
  EXPECT_EQ(make({"--n", "-5"}).get_int_in("n", 0, INT_MIN, INT_MAX), -5);
}

TEST(Cli, IntInRangeNamesTheFlagAndTheRangeItMissed) {
  EXPECT_TRUE(contains(
      error_of([] { (void)make({"--threads", "-3"}).get_int_in(
                        "threads", 0, 0, 4096); }),
      "flag --threads must be in [0, 4096], got -3"));
  EXPECT_TRUE(contains(
      error_of([] { (void)make({"--batch", "1000001"}).get_int_in(
                        "batch", 8, 1, 1000000); }),
      "flag --batch must be in [1, 1000000], got 1000001"));
  // Text that is no integer keeps get_int's message.
  EXPECT_TRUE(contains(
      error_of([] { (void)make({"--batch", "4x"}).get_int_in(
                        "batch", 8, 1, 1000000); }),
      "flag --batch expects an integer, got '4x'"));
}

TEST(Cli, IntInRangeRejectsValuesThatWouldWrapTheIntCast) {
  // 2^32 + 1 and -(2^32 - 1) both cast to 1; 2^31 casts to INT_MIN.
  for (const char* text : {"4294967297", "-4294967295", "2147483648"}) {
    const auto args = make({"--threads", text});
    EXPECT_THROW((void)args.get_int_in("threads", 0, 0, 4096), Error) << text;
    EXPECT_THROW((void)args.get_int_in("threads", 0, INT_MIN, INT_MAX), Error)
        << text;
  }
  EXPECT_TRUE(contains(
      error_of([] { (void)make({"--threads", "4294967297"}).get_int_in(
                        "threads", 0, 0, 4096); }),
      "got 4294967297"));
}

TEST(Cli, U64ReadsTheWholeUnsignedRangeAndFallsBackWhenAbsent) {
  EXPECT_EQ(make({"--seed", "0"}).get_u64("seed", 42), 0u);
  EXPECT_EQ(make({"--seed", "18446744073709551615"}).get_u64("seed", 42),
            UINT64_MAX);
  EXPECT_EQ(make({"--seed=007"}).get_u64("seed", 42), 7u);
  EXPECT_EQ(make({}).get_u64("seed", 42), 42u);
  EXPECT_EQ(parse_u64_flag("seeds", "9223372036854775808"),
            std::uint64_t{1} << 63);
}

TEST(Cli, U64RejectsSignsAndNonDigits) {
  // "-1" once read as 2^64 - 1 through strtoull.
  for (const char* text : {"-1", "+1", "1e3", "0x10", " 5", "5 ", "", "1.0"}) {
    EXPECT_TRUE(contains(
        error_of([text] { (void)make({"--seed", text}).get_u64("seed", 42); }),
        "flag --seed expects a non-negative integer, got '" +
            std::string(text) + "'"))
        << "'" << text << "'";
    EXPECT_TRUE(contains(error_of([text] {
                           (void)parse_u64_flag("scenario-seed", text);
                         }),
                         "flag --scenario-seed expects a non-negative "
                         "integer"))
        << "'" << text << "'";
  }
}

TEST(Cli, U64RejectsValuesPastTheUnsignedRange) {
  for (const char* text : {"18446744073709551616", "99999999999999999999"}) {
    EXPECT_TRUE(contains(
        error_of([text] { (void)make({"--seed", text}).get_u64("seed", 42); }),
        "flag --seed integer out of range: '" + std::string(text) + "'"))
        << text;
  }
}

}  // namespace
}  // namespace bwshare
