// Seeded mutation fuzzing of the text entry points users reach: the trace
// reader, the scheme DSL, generator specs and the serve JSON-lines protocol.
// Seeds are the shipped data files and a few generator specs; mutations are
// byte flips, token splices, duplicated and truncated lines, and numeric
// extremes. The property: every input either parses or throws
// bwshare::Error with a non-empty message. Any other exception, an
// internal-invariant failure, or (under ASan+UBSan) a memory error or
// undefined behaviour fails the suite; a hang trips the ctest timeout.
// Errors stay values at the boundary. Fixed seeds and case counts keep it
// deterministic, and no libFuzzer is needed.
#include <cctype>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generator.hpp"
#include "graph/scheme_lexer.hpp"
#include "graph/scheme_parser.hpp"
#include "serve/protocol.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bwshare {
namespace {

constexpr int kCasesPerEntryPoint = 10000;

std::string read_data(const std::string& name) {
  std::ifstream in(std::string(BWSHARE_SOURCE_DIR) + "/data/" + name);
  EXPECT_TRUE(in.good()) << "missing data/" << name;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  for (const auto& line : split(text, '\n'))
    if (!line.empty()) out.push_back(line);
  return out;
}

/// The input rendered printable, for failure messages.
std::string escaped(const std::string& text) {
  std::string out;
  for (const unsigned char c : text) {
    if (c == '\n') {
      out += "\\n\n";
    } else if (c < 0x20 || c >= 0x7f) {
      out += strformat("\\x%02x", c);
    } else {
      out += static_cast<char>(c);
    }
  }
  return out;
}

/// Stacks one to four mutations on a seed drawn from `corpus`.
class Mutator {
 public:
  Mutator(std::uint64_t seed, std::vector<std::string> corpus)
      : rng_(seed), corpus_(std::move(corpus)) {}

  std::string next() {
    std::string text = corpus_[rng_.below(corpus_.size())];
    const auto rounds = 1 + rng_.below(4);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      switch (rng_.below(5)) {
        case 0: flip_byte(text); break;
        case 1: splice_token(text); break;
        case 2: duplicate_line(text); break;
        case 3: truncate(text); break;
        default: numeric_extreme(text); break;
      }
    }
    return text;
  }

 private:
  struct Span {
    size_t begin = 0;
    size_t size = 0;
  };

  static bool token_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
           c == '_' || c == '+' || c == '-' || c == '*';
  }

  /// Token spans of `text`; numbers only if `numeric`.
  static std::vector<Span> tokens(const std::string& text, bool numeric) {
    std::vector<Span> out;
    for (size_t i = 0; i < text.size();) {
      if (!token_char(text[i])) {
        ++i;
        continue;
      }
      const size_t start = i;
      while (i < text.size() && token_char(text[i])) ++i;
      if (!numeric || std::isdigit(static_cast<unsigned char>(text[start])))
        out.push_back({start, i - start});
    }
    return out;
  }

  size_t position(const std::string& text) {
    return text.empty() ? 0 : rng_.below(text.size() + 1);
  }

  void flip_byte(std::string& text) {
    if (text.empty()) return;
    const size_t at = rng_.below(text.size());
    if (rng_.below(2) == 0)
      text[at] = static_cast<char>(rng_.below(256));
    else
      text[at] = static_cast<char>(text[at] ^ (1 << rng_.below(8)));
  }

  void splice_token(std::string& text) {
    const std::string& donor = corpus_[rng_.below(corpus_.size())];
    const auto spans = tokens(donor, false);
    if (spans.empty()) return;
    const Span s = spans[rng_.below(spans.size())];
    const std::string token = donor.substr(s.begin, s.size);
    const auto own = tokens(text, false);
    if (own.empty() || rng_.below(2) == 0) {
      text.insert(position(text), " " + token + " ");
    } else {
      const Span t = own[rng_.below(own.size())];
      text.replace(t.begin, t.size, token);
    }
  }

  void duplicate_line(std::string& text) {
    const auto lines = split(text, '\n');
    const std::string& line = lines[rng_.below(lines.size())];
    text.insert(position(text), line + "\n");
  }

  void truncate(std::string& text) {
    if (rng_.below(2) == 0) {
      text.resize(position(text));
    } else {  // drop the tail of one line
      const size_t at = position(text);
      const size_t eol = text.find('\n', at);
      text.erase(at, eol == std::string::npos ? std::string::npos : eol - at);
    }
  }

  void numeric_extreme(std::string& text) {
    static const char* const kExtremes[] = {
        "2147483647", "2147483648", "1000000", "1000001", "4294967296",
        "99999999999999999999", "1e308", "1e999", "1e-400", "-0", "0x10",
        "0x1p-1080", "nan", "NaN", "-nan", "nan(1)", "inf", "infinity",
        "-1", "0", "4.94065646e-324", "1.7976931348623157e308"};
    const auto spans = tokens(text, true);
    const std::string extreme = kExtremes[rng_.below(std::size(kExtremes))];
    if (spans.empty()) {
      text.insert(position(text), extreme);
      return;
    }
    const Span s = spans[rng_.below(spans.size())];
    text.replace(s.begin, s.size, extreme);
  }

  Rng rng_;
  std::vector<std::string> corpus_;
};

/// Run `parse` on `input`: it must return or throw bwshare::Error with a
/// non-empty message that is not an internal-invariant failure. Returns
/// whether it returned.
template <typename Parse>
bool parses_or_errors(const std::string& input, Parse&& parse) {
  try {
    parse(input);
    return true;
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_FALSE(msg.empty()) << "empty error message for:\n"
                              << escaped(input);
    EXPECT_EQ(msg.find("internal invariant violated"), std::string::npos)
        << msg << "\ninput:\n"
        << escaped(input);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-bwshare exception '" << e.what() << "' for:\n"
                  << escaped(input);
  }
  return false;
}

std::vector<std::string> scheme_seeds() {
  std::vector<std::string> seeds;
  for (const char* name : {"fig2_s4.scheme", "fig5_myrinet.scheme",
                           "mixed_sizes.scheme", "mk2_complete.scheme"})
    seeds.push_back(read_data(name));
  seeds.push_back("scheme \"x\"\nnodes 4\ncomm a 0 -> 1 size 1.5e6\n"
                  "comm b 3 <- 2 size 0x10M\n");
  return seeds;
}

TEST(TextFuzz, TraceReader) {
  Mutator mutator(101, {read_data("ring8.trace"),
                        "tasks 3\n0 compute 0.25\n0 send 1 4e6\n"
                        "1 recv any 4000000\r\n2 irecv 0 +5\n* barrier\n"});
  int accepted = 0;
  for (int i = 0; i < kCasesPerEntryPoint; ++i) {
    const std::string input = mutator.next();
    const bool ok = parses_or_errors(input, [](const std::string& text) {
      // Whatever reads must also write, and read back to the same text.
      const std::string written = sim::write_trace(sim::read_trace(text));
      EXPECT_EQ(sim::write_trace(sim::read_trace(written)), written);
    });
    accepted += ok;
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, kCasesPerEntryPoint / 20) << "mutations too destructive";
}

TEST(TextFuzz, SchemeParser) {
  Mutator mutator(202, scheme_seeds());
  int accepted = 0;
  for (int i = 0; i < kCasesPerEntryPoint; ++i) {
    const std::string input = mutator.next();
    accepted += parses_or_errors(input, [](const std::string& text) {
      (void)graph::parse_scheme(text);
    });
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, kCasesPerEntryPoint / 20) << "mutations too destructive";
}

TEST(TextFuzz, TokenizerAgreesWithTheParserOnLexicalErrors) {
  // A source the lexer rejects must fail to parse with that same error.
  Mutator mutator(303, scheme_seeds());
  for (int i = 0; i < kCasesPerEntryPoint; ++i) {
    const std::string input = mutator.next();
    std::string lexical;
    try {
      (void)graph::tokenize_scheme(input);
      continue;
    } catch (const Error& e) {
      lexical = e.what();
    }
    try {
      (void)graph::parse_scheme(input);
      ADD_FAILURE() << "parsed despite '" << lexical << "':\n"
                    << escaped(input);
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), lexical) << escaped(input);
    }
    if (HasFailure()) return;
  }
}

TEST(TextFuzz, GeneratorSpec) {
  Mutator mutator(404, {"ring:nodes=8", "random:nodes=16,comms=40,spread=1",
                        "hotspot:nodes=12,bytes=4MiB", "alltoall:nodes=4",
                        "random:nodes=256,comms=160,spread=1,bytes=20M"});
  int accepted = 0;
  for (int i = 0; i < kCasesPerEntryPoint; ++i) {
    const std::string input = mutator.next();
    accepted += parses_or_errors(input, [](const std::string& text) {
      (void)graph::parse_generator_spec(text);
    });
    if (HasFailure()) return;
  }
  // Specs are short, so most mutations break them.
  EXPECT_GT(accepted, kCasesPerEntryPoint / 100) << "mutations too destructive";
}

TEST(TextFuzz, ServeProtocol) {
  std::vector<std::string> seeds = lines_of(read_data("serve_smoke.jsonl"));
  seeds.push_back(
      "{\"id\":\"n\",\"scheme\":\"random:nodes=8,comms=12\",\"network\":"
      "\"myrinet\",\"nodes\":16,\"cores\":2,\"churn\":0.5,\"seed\":\"42\"}");
  Mutator mutator(505, seeds);
  int accepted = 0;
  for (int i = 0; i < kCasesPerEntryPoint; ++i) {
    const std::string input = mutator.next();
    accepted += parses_or_errors(input, [](const std::string& line) {
      (void)serve::query_from_json(serve::parse_flat_json_object(line));
    });
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, kCasesPerEntryPoint / 20) << "mutations too destructive";
}

}  // namespace
}  // namespace bwshare
