// The numeric grammar at every text entry point: trace fields, parse_size
// (and through it the scheme DSL's `size`), the generator's `spread`,
// try_parse_long / try_parse_u64, CliArgs::get_double and the serve
// protocol's numbers. Each table pins what the entry point reads today —
// strtod's set for the doubles (a leading '+', hex, out-of-range values read
// as inf or 0), strtol's for the integers — so the one parser under all of
// them cannot drift from it. Each entry point keeps its own range and
// finiteness checks, so the same spelling can be accepted at one and
// rejected at another.
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "graph/scheme_parser.hpp"
#include "serve/protocol.hpp"
#include "sim/trace_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bwshare {
namespace {

using namespace std::string_literals;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kMinSubnormal = 0x1p-1074;

/// One spelling and what an entry point makes of it: a value (compared bit
/// for bit; any NaN matches a NaN) or an error whose message contains
/// `error`.
struct Pin {
  std::string text;
  std::optional<double> value;
  std::string error;
};

Pin ok(std::string text, double value) { return {std::move(text), value, ""}; }
Pin err(std::string text, std::string error) {
  return {std::move(text), std::nullopt, std::move(error)};
}

bool same_bits(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <typename Read>
void check_pins(const std::vector<Pin>& pins, Read&& read) {
  for (const Pin& pin : pins) {
    SCOPED_TRACE("input '" + pin.text + "'");
    try {
      const double got = read(pin.text);
      if (pin.value) {
        EXPECT_TRUE(same_bits(got, *pin.value))
            << "read " << got << " (" << strformat("%a", got) << "), want "
            << *pin.value;
      } else {
        ADD_FAILURE() << "accepted as " << got << ", want an error containing '"
                      << pin.error << "'";
      }
    } catch (const Error& e) {
      if (pin.value) {
        ADD_FAILURE() << "rejected: " << e.what();
      } else {
        EXPECT_NE(std::string(e.what()).find(pin.error), std::string::npos)
            << "message: " << e.what();
      }
    }
  }
}

// -------------------------------------------------------------- trace fields

std::vector<Pin> trace_field_pins(const std::string& what) {
  const std::string malformed = "malformed " + what + " '";
  const std::string range = what + " must be finite and non-negative";
  return {
      ok("+5", 5.0),
      ok("0x64", 100.0),
      ok("1e-400", 0.0),
      ok("-1e-400", -0.0),
      ok("-0", -0.0),
      ok(".5", 0.5),
      ok("5.", 5.0),
      ok("00012", 12.0),
      ok("1E+3", 1000.0),
      ok("4.94065646e-324", kMinSubnormal),
      ok("1.5e6", 1.5e6),
      ok("0x1p-2", 0.25),
      ok("0X.8", 0.5),
      ok("1.7976931348623157e308", 1.7976931348623157e308),
      ok("5\0x"s, 5.0),  // a NUL ends the field
      err("1e999", range),
      err("inf", range),
      err("infinity", range),
      err("INF", range),
      err("nan", range),
      err("NaN", range),
      err("-nan", range),
      err("nan(123)", range),
      err("-5", range),
      err("-0x10", range),
      err("12x", malformed + "12x'"),
      err("1e", malformed + "1e'"),
      err("1e+", malformed),
      err("20M", malformed + "20M'"),
      err("4MiB", malformed),
      err("+-5", malformed),
      err("-+5", malformed),
      err("0x", malformed),
      err("0x1p", malformed),
      err(".", malformed),
      err("e5", malformed),
      err("infin", malformed),
      err("nan(1", malformed),
      err("1,5", malformed),
  };
}

TEST(NumberGrammarPins, TraceComputeDuration) {
  check_pins(trace_field_pins("duration"), [](const std::string& text) {
    const auto trace = sim::read_trace("tasks 1\n0 compute " + text + "\n");
    return trace.program(0).at(0).seconds();
  });
}

TEST(NumberGrammarPins, TraceMessageSize) {
  check_pins(trace_field_pins("size"), [](const std::string& text) {
    const auto trace = sim::read_trace("tasks 2\n0 send 1 " + text + "\n");
    return trace.program(0).at(0).bytes();
  });
}

// ---------------------------------------------------------------- parse_size

TEST(NumberGrammarPins, ParseSize) {
  check_pins(
      {
          ok("20M", 20e6),
          ok("4MiB", 4.0 * 1024 * 1024),
          ok("1.5e6", 1.5e6),
          ok("512k", 512e3),
          ok("1G", 1e9),
          ok("2GiB", 2.0 * 1024 * 1024 * 1024),
          ok("64B", 64.0),
          ok("20MB", 20e6),
          ok(" 20 M ", 20e6),
          ok("+5", 5.0),
          ok("0x64", 100.0),
          ok("0x10M", 16e6),
          ok("1e-400", 0.0),
          ok("-0", -0.0),
          ok("-5", -5.0),
          ok(".5", 0.5),
          ok("5.", 5.0),
          ok("00012", 12.0),
          ok("1E+3", 1000.0),
          ok("4.94065646e-324", kMinSubnormal),
          ok("1e999", kInf),
          ok("inf", kInf),
          ok("infinity", kInf),
          ok("nan", kNaN),
          ok("20M\0zz"s, 20e6),  // a NUL ends the suffix
          err("12x", "unknown size suffix 'x' in '12x'"),
          err("1e", "unknown size suffix 'e' in '1e'"),
          err("1e+", "unknown size suffix 'e+' in '1e+'"),
          err("0x", "unknown size suffix 'x' in '0x'"),
          err("20 M B", "unknown size suffix 'M B' in '20 M B'"),
          err("", "empty size literal"),
          err("   ", "empty size literal"),
          err("M", "malformed size literal: 'M'"),
          err("+-5", "malformed size literal: '+-5'"),
      },
      [](const std::string& text) { return parse_size(text); });
}

TEST(NumberGrammarPins, SchemeSizeStatement) {
  // The lexer only starts a number on a digit, so signs, a leading '.' and
  // inf/nan never reach parse_size from a scheme.
  check_pins(
      {
          ok("20M", 20e6),
          ok("4MiB", 4.0 * 1024 * 1024),
          ok("1.5e6", 1.5e6),
          ok("0x64", 100.0),
          ok("1e-400", 0.0),
          ok("00012", 12.0),
          ok("1E+3", 1000.0),
          ok("5.", 5.0),
          ok("4.94065646e-324", kMinSubnormal),
          err("1e999", "line 1: size 1e999 is not finite"),
          err("+5", "line 1: unexpected character '+'"),
          err("-0", "line 1: unexpected character '-'"),
          err(".5", "line 1: unexpected character '.'"),
          err("inf", "expected size literal (number), got identifier 'inf'"),
          err("nan", "expected size literal (number), got identifier 'nan'"),
          err("12x", "unknown size suffix 'x' in '12x'"),
          err("1e", "unknown size suffix 'e' in '1e'"),
      },
      [](const std::string& text) {
        const auto parsed =
            graph::parse_scheme("comm a 0 -> 1 size " + text + "\n");
        return parsed.graph.comm(0).bytes;
      });
}

// ------------------------------------------------------ generator's `spread`

TEST(NumberGrammarPins, GeneratorSpread) {
  const std::string malformed = "generator: spread expects a number, got '";
  const std::string range = "generator: spread must be in [0, 8], got ";
  check_pins(
      {
          ok("+5", 5.0),
          ok("0x4", 4.0),
          ok("1e-400", 0.0),
          ok("-0", -0.0),
          ok(".5", 0.5),
          ok("5.", 5.0),
          ok("1E+0", 1.0),
          ok("4.94065646e-324", kMinSubnormal),
          ok("1.5e0", 1.5),
          ok(" 2 ", 2.0),
          ok("", 0.0),  // strtod's "no conversion" 0, never rejected
          err("00012", range + "12"),
          err("1e999", range + "inf"),
          err("inf", range + "inf"),
          err("infinity", range + "inf"),
          err("nan", range + "nan"),
          err("-1", range + "-1"),
          err("12x", malformed + "12x'"),
          err("1e", malformed + "1e'"),
          err("20M", malformed + "20M'"),
          err("+-5", malformed + "+-5'"),
          err("0x", malformed + "0x'"),
      },
      [](const std::string& text) {
        return graph::parse_generator_spec("random:nodes=8,comms=4,spread=" +
                                           text)
            .spread;
      });
}

// --------------------------------------------------- integers: long and u64

TEST(NumberGrammarPins, TryParseLong) {
  struct Row {
    const char* text;
    ParseIntStatus status;
    long value;
  };
  const Row rows[] = {
      {"+5", ParseIntStatus::kOk, 5},
      {"-0", ParseIntStatus::kOk, 0},
      {"00012", ParseIntStatus::kOk, 12},
      {"-00012", ParseIntStatus::kOk, -12},
      {"2147483647", ParseIntStatus::kOk, 2147483647},
      {"9223372036854775807", ParseIntStatus::kOk,
       std::numeric_limits<long>::max()},
      {"-9223372036854775808", ParseIntStatus::kOk,
       std::numeric_limits<long>::min()},
      {"9223372036854775808", ParseIntStatus::kOutOfRange, 0},
      {"-9223372036854775809", ParseIntStatus::kOutOfRange, 0},
      {"0x64", ParseIntStatus::kMalformed, 0},
      {"1e-400", ParseIntStatus::kMalformed, 0},
      {".5", ParseIntStatus::kMalformed, 0},
      {"5.", ParseIntStatus::kMalformed, 0},
      {"1E+3", ParseIntStatus::kMalformed, 0},
      {"12x", ParseIntStatus::kMalformed, 0},
      {"inf", ParseIntStatus::kMalformed, 0},
      {"nan", ParseIntStatus::kMalformed, 0},
      {"20M", ParseIntStatus::kMalformed, 0},
      {" 5", ParseIntStatus::kMalformed, 0},
      {"5 ", ParseIntStatus::kMalformed, 0},
      {"+", ParseIntStatus::kMalformed, 0},
      {"+-5", ParseIntStatus::kMalformed, 0},
      {"", ParseIntStatus::kMalformed, 0},
  };
  for (const Row& row : rows) {
    long v = -77;
    EXPECT_EQ(try_parse_long(row.text, v), row.status) << row.text;
    EXPECT_EQ(v, row.status == ParseIntStatus::kOk ? row.value : -77)
        << row.text;
  }
  long v = 0;
  EXPECT_EQ(try_parse_long("5\0"s, v), ParseIntStatus::kMalformed);
}

TEST(NumberGrammarPins, TryParseU64) {
  struct Row {
    const char* text;
    ParseIntStatus status;
    std::uint64_t value;
  };
  const Row rows[] = {
      {"0", ParseIntStatus::kOk, 0},
      {"00012", ParseIntStatus::kOk, 12},
      {"18446744073709551615", ParseIntStatus::kOk,
       std::numeric_limits<std::uint64_t>::max()},
      {"18446744073709551616", ParseIntStatus::kOutOfRange, 0},
      {"99999999999999999999999", ParseIntStatus::kOutOfRange, 0},
      {"+5", ParseIntStatus::kMalformed, 0},
      {"-0", ParseIntStatus::kMalformed, 0},
      {"0x64", ParseIntStatus::kMalformed, 0},
      {"1e3", ParseIntStatus::kMalformed, 0},
      {"12x", ParseIntStatus::kMalformed, 0},
      {" 1", ParseIntStatus::kMalformed, 0},
      {"", ParseIntStatus::kMalformed, 0},
  };
  for (const Row& row : rows) {
    std::uint64_t v = 77;
    EXPECT_EQ(try_parse_u64(row.text, v), row.status) << row.text;
    EXPECT_EQ(v, row.status == ParseIntStatus::kOk ? row.value : 77u)
        << row.text;
  }
}

// ------------------------------------------------------ CliArgs::get_double

TEST(NumberGrammarPins, CliGetDouble) {
  const std::string malformed = "flag --x expects a number, got '";
  check_pins(
      {
          ok("+5", 5.0),
          ok("0x64", 100.0),
          ok("1e-400", 0.0),
          ok("-0", -0.0),
          ok("-5", -5.0),
          ok(".5", 0.5),
          ok("5.", 5.0),
          ok("00012", 12.0),
          ok("1E+3", 1000.0),
          ok("4.94065646e-324", kMinSubnormal),
          ok("1.5e6", 1.5e6),
          ok("1e999", kInf),
          ok("inf", kInf),
          ok("nan", kNaN),
          ok(" 5", 5.0),  // strtod skips leading whitespace
          ok("\t\v5", 5.0),
          ok("", 0.0),  // strtod's "no conversion" 0, never rejected
          err("5 ", malformed + "5 '"),
          err(" ", malformed + " '"),
          err("12x", malformed + "12x'"),
          err("1e", malformed + "1e'"),
          err("20M", malformed + "20M'"),
          err("+-5", malformed + "+-5'"),
      },
      [](const std::string& text) {
        const std::string flag = "--x=" + text;
        const char* argv[] = {"prog", flag.c_str()};
        return CliArgs(2, argv).get_double("x", -1.0);
      });
}

// ------------------------------------------------ serve protocol's numbers

TEST(NumberGrammarPins, ServeProtocolNumbers) {
  const std::string bad = "serve request: bad value '";
  check_pins(
      {
          ok("+5", 5.0),
          ok("0x64", 100.0),
          ok("1e-400", 0.0),
          ok("-0", -0.0),
          ok("-5", -5.0),
          ok(".5", 0.5),
          ok("5.", 5.0),
          ok("00012", 12.0),
          ok("1E+3", 1000.0),
          ok("4.94065646e-324", kMinSubnormal),
          ok("1.5e6", 1.5e6),
          ok("\v5", 5.0),  // not JSON whitespace, but strtod skips it
          ok("\f5", 5.0),
          err("1e999", bad + "1e999'"),
          err("inf", bad + "inf'"),
          err("infinity", bad + "infinity'"),
          err("nan", bad + "nan'"),
          err("12x", bad + "12x'"),
          err("1e", bad + "1e'"),
          err("20M", bad + "20M'"),
          err("+-5", bad + "+-5'"),
          err("", bad + "'"),
      },
      [](const std::string& text) {
        const auto obj =
            serve::parse_flat_json_object("{\"n\":" + text + "}");
        const serve::JsonValue& v = obj.at(0).second;
        BWS_CHECK(v.kind == serve::JsonValue::Kind::kNumber, "not a number");
        EXPECT_EQ(v.str, text) << "the raw spelling is kept";
        return v.num;
      });
}

// ----------------------------------------- parse_double_prefix vs strtod

/// strtod on a NUL-terminated copy, as every entry point used to call it:
/// the characters read (0 when nothing converts) and the value.
size_t strtod_prefix(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return static_cast<size_t>(end - text.c_str());
}

/// parse_double_prefix must read exactly what strtod reads — the same
/// characters and the same bits (NaN payloads aside) — on any text that
/// does not start with whitespace, which strtod would skip.
void expect_reads_like_strtod(const std::string& text) {
  if (!text.empty() && is_space(text.front())) return;
  double want = 0.0;
  const size_t want_used = strtod_prefix(text, want);
  double got = -7.0;
  const size_t got_used = parse_double_prefix(text, got);
  ASSERT_EQ(got_used, want_used) << "'" << text << "'";
  if (want_used == 0) {
    EXPECT_EQ(got, -7.0) << "out must be untouched: '" << text << "'";
    return;
  }
  EXPECT_EQ(std::signbit(got), std::signbit(want)) << "'" << text << "'";
  EXPECT_TRUE(same_bits(got, want))
      << "'" << text << "': " << strformat("%a vs %a", got, want);
}

TEST(NumberGrammar, ParseDoublePrefixMatchesStrtodOnRandomText) {
  // Every character strtod's grammar gives meaning to, plus a few it stops
  // at, so most strings are partial numbers.
  const std::string alphabet = "0123456789+-.eEpPxXaAfFiInNtTyY()_ 5";
  Rng rng(31337);
  for (int i = 0; i < 200000; ++i) {
    std::string text;
    const size_t len = rng.below(14);
    for (size_t k = 0; k < len; ++k) text += alphabet[rng.below(alphabet.size())];
    expect_reads_like_strtod(text);
    if (HasFatalFailure()) return;
  }
}

TEST(NumberGrammar, ParseDoublePrefixMatchesStrtodOnFormattedNumbers) {
  Rng rng(4242);
  const char* const formats[] = {"%.17g", "%.9g", "%.0f", "%a", "%.3e",
                                 "%.25e", "%A", "%.1f", "%g"};
  for (int i = 0; i < 30000; ++i) {
    const double v = std::bit_cast<double>(rng());
    for (const char* format : formats) {
      expect_reads_like_strtod(strformat(format, v));
      if (HasFatalFailure()) return;
    }
  }
}

TEST(NumberGrammar, ParseDoublePrefixMatchesStrtodAtTheEdges) {
  const char* const cases[] = {
      "1e-400", "-1e-400", "2e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "3e-324", "1e-310", "1e999", "-1e999",
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.7976931348623159e308", "179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497792",
      "0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001",
      "1e+99999999999999999999", "1e-99999999999999999999",
      "0e99999", "0.0e-99999", "0x1p-1074", "0x1p-1075", "0x1p-1076",
      "0x1.8p-1075", "0x1p1023", "0x1p1024", "-0x1p1024", "0x1.fffffffffffffp1023",
      "0x1.fffffffffffff8p1023", "0x.8", "0X.8p1", "0x", "0x.", "0x.p1",
      "0xg", "0x1p", "0x1p+", "0x1.", "-0x", "+0x10", "00x10",
      "inf", "-inf", "+inf", "INFINITY", "infinit", "infx", "nan", "-nan",
      "+nan", "nan()", "nan(abc_123)", "nan(a-b)", "nan(", "NAN(0x5)",
      "+", "-", "+-1", "-+1", "--1", "++1", ".", "+.", "-.e1", ".e1",
      "1.", "1.e5", "1.e", "1e+", "1e-", "1e+5x", "5.5.5", "1_000",
  };
  for (const char* text : cases) {
    expect_reads_like_strtod(text);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace bwshare
