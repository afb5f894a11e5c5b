// Negative paths of the scheme DSL parser: every rejected input documented
// in docs/SCHEME_DSL.md ("Rejected examples") is pinned here with its exact
// error message, so the docs table and the parser cannot drift apart.
#include "graph/scheme_parser.hpp"

#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/scheme_lexer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::graph {
namespace {

/// Parse `source` expecting failure; assert the message contains `needle`.
void expect_parse_error(const std::string& source, const std::string& needle) {
  try {
    (void)parse_scheme(source);
    FAIL() << "expected a parse error containing \"" << needle
           << "\" for input:\n"
           << source;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message was: " << e.what();
  }
}

TEST(SchemeParserErrors, NodeBeyondDeclaredCount) {
  expect_parse_error("nodes 2\ncomm a 0 -> 3\n",
                     "scheme references node 3 but declares only 2 nodes");
}

TEST(SchemeParserErrors, MissingDestinationNode) {
  expect_parse_error(
      "comm a 0 -> 1\ncomm b 0 ->\n",
      "line 2: expected destination node (number), got newline");
}

TEST(SchemeParserErrors, MissingArrowBetweenNodes) {
  expect_parse_error("comm a 0 1\n",
                     "line 1: expected '->' or '<-' after node id");
}

TEST(SchemeParserErrors, UnknownStatement) {
  expect_parse_error("flurb 3\n", "line 1: unknown statement 'flurb'");
}

TEST(SchemeParserErrors, DuplicateCommLabel) {
  expect_parse_error("comm a 0 -> 1\ncomm a 0 -> 2\n",
                     "duplicate communication label 'a'");
}

TEST(SchemeParserErrors, UnknownSizeSuffix) {
  expect_parse_error("comm a 0 -> 1 size 3QiB\n",
                     "unknown size suffix 'QiB' in '3QiB'");
}

TEST(SchemeParserErrors, UnexpectedCharacter) {
  expect_parse_error("comm a 0 -> 1 $\n", "line 1: unexpected character '$'");
}

TEST(SchemeParserErrors, UnterminatedString) {
  expect_parse_error("scheme \"unterminated\n", "line 1: unterminated string");
}

TEST(SchemeParserErrors, DuplicateSchemeDirective) {
  expect_parse_error("scheme \"x\"\nscheme \"y\"\n",
                     "line 2: duplicate 'scheme' directive");
}

TEST(SchemeParserErrors, NodesMustBePositive) {
  expect_parse_error("nodes 0\n", "'nodes' must be positive");
}

TEST(SchemeParserErrors, NonIntegerNodeId) {
  expect_parse_error("comm a 1.5 -> 2\n",
                     "line 1: source node must be an integer, got '1.5'");
}

TEST(SchemeParserErrors, OutOfRangeNodeCount) {
  // A count past INT_MAX must be rejected, not silently truncated.
  expect_parse_error("nodes 99999999999999999999\n",
                     "node count out of range: '99999999999999999999'");
  expect_parse_error("comm a 4294967296 -> 1\n",
                     "source node out of range: '4294967296'");
}

TEST(SchemeParserErrors, MissingSizeLiteral) {
  expect_parse_error("comm a 0 -> 1 size\n",
                     "line 1: expected size literal (number), got newline");
}

TEST(SchemeParserErrors, NonFiniteSize) {
  // An infinite message never drains: its replay used to end in
  // "simulation deadlock".
  expect_parse_error("comm a 0 -> 1\ncomm b 0 -> 2 size 1e999\n",
                     "line 2: size 1e999 is not finite");
  expect_parse_error("size 1e308G\n", "line 1: size 1e308G is not finite");
}

TEST(SchemeParserErrors, ReservedBraceToken) {
  // '{', '}' and ',' are lexed but rejected by the grammar.
  expect_parse_error("comm a 0 -> 1 {\n",
                     "line 1: expected end of statement (newline), got '{'");
}

TEST(SchemeParserErrors, FileErrorsCarryThePath) {
  EXPECT_THROW((void)parse_scheme_file("/nonexistent/x.scheme"), Error);
  const std::string path = testing::TempDir() + "bad_scheme_errors.scheme";
  {
    std::ofstream out(path);
    out << "flurb 3\n";
  }
  try {
    (void)parse_scheme_file(path);
    FAIL() << "expected the parse to fail";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find("unknown statement 'flurb'"), std::string::npos) << msg;
  }
}

TEST(SchemeParserErrors, NodeCountAboveTheCeiling) {
  expect_parse_error("nodes 2147483647\n",
                     "line 1: node count 2147483647 exceeds the limit of "
                     "1000000");
  expect_parse_error("scheme \"x\"\nnodes 1000001\n",
                     "line 2: node count 1000001 exceeds the limit of 1000000");
  EXPECT_EQ(parse_scheme("nodes 1000000\ncomm a 0 -> 1\n").declared_nodes,
            1000000);
}

TEST(SchemeParserErrors, NodeIdAboveTheCeiling) {
  expect_parse_error("comm a 0 -> 2147483646\n",
                     "line 1: destination node 2147483646 exceeds the limit "
                     "of 1000000 nodes");
  expect_parse_error("comm a 0 -> 1\ncomm b 1000000 -> 1\n",
                     "line 2: source node 1000000 exceeds the limit of "
                     "1000000 nodes");
  expect_parse_error("comm a 3 <- 2147483647\n",
                     "line 1: source node 2147483647 exceeds the limit of "
                     "1000000 nodes");
  EXPECT_EQ(parse_scheme("comm a 0 -> 999999\n").graph.num_nodes(), 1000000);
}

TEST(SchemeParserErrors, LexicalErrorsWinOverEarlierParseErrors) {
  // The whole source is tokenized before any statement is parsed, so a bad
  // character anywhere is reported ahead of a grammar error on an earlier
  // line.
  expect_parse_error("nodes x\ncomm a 0 -> 1 $\n",
                     "line 2: unexpected character '$'");
  expect_parse_error("flurb 3\nscheme \"unterminated\n",
                     "line 2: unterminated string");
  expect_parse_error("comm a 0 -> 1\ncomm a 0 -> 2\n@\n",
                     "line 3: unexpected character '@'");
}

TEST(SchemeParserErrors, TokenTextAndLinesArePinned) {
  const auto tokens = tokenize_scheme(
      "\n\nscheme \"s 1\" # c\r\nsize 4MiB\n\n\ncomm a_1 3 <- 0 size 1.5e+6\n{,}");
  std::string seen;
  for (const Token& t : tokens)
    seen += strformat("%d:%s:%s|", t.line, to_string(t.kind).c_str(),
                      std::string(t.text).c_str());
  EXPECT_EQ(seen,
            "3:identifier:scheme|3:string:s 1|3:newline:\\n|"
            "4:identifier:size|4:number:4MiB|4:newline:\\n|"
            "7:identifier:comm|7:identifier:a_1|7:number:3|7:'<-':<-|"
            "7:number:0|7:identifier:size|7:number:1.5e+6|7:newline:\\n|"
            "8:'{':{|8:',':,|8:'}':}|8:newline:\\n|8:end of input:|");
}

}  // namespace
}  // namespace bwshare::graph
