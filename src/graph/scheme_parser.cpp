#include "graph/scheme_parser.hpp"

#include <cmath>
#include <limits>
#include <sstream>

#include "graph/scheme_lexer.hpp"
#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"
#include "util/text_file.hpp"
#include "util/units.hpp"

namespace bwshare::graph {

namespace {

/// Recursive descent over a pull lexer: tokens are read one at a time and
/// view the source, so a well-formed scheme allocates only its graph.
class Parser {
 public:
  explicit Parser(std::string_view source)
      : lexer_(source), token_(lexer_.next()) {}

  ParsedScheme parse() {
    ParsedScheme out;
    double default_size = 20 * MB;  // the paper's referential message size
    bool seen_name = false;

    skip_newlines();
    while (!at(TokenKind::kEnd)) {
      const Token head = expect(TokenKind::kIdent, "statement keyword");
      if (head.text == "scheme") {
        BWS_CHECK(!seen_name, where() + "duplicate 'scheme' directive");
        out.name = expect(TokenKind::kString, "scheme name").text;
        seen_name = true;
      } else if (head.text == "nodes") {
        out.declared_nodes = parse_int("node count");
        BWS_CHECK(out.declared_nodes > 0,
                  where() + "'nodes' must be positive");
        BWS_CHECK(out.declared_nodes <= kMaxCount,
                  where() + strformat("node count %d exceeds the limit of %d",
                                      out.declared_nodes, kMaxCount));
      } else if (head.text == "size") {
        default_size = parse_size_token();
      } else if (head.text == "comm") {
        parse_comm(out, default_size);
      } else {
        BWS_THROW(where() + "unknown statement '" + std::string(head.text) +
                  "'");
      }
      end_statement();
    }

    if (out.declared_nodes == 0) out.declared_nodes = out.graph.num_nodes();
    BWS_CHECK(out.graph.num_nodes() <= out.declared_nodes,
              strformat("scheme references node %d but declares only %d nodes",
                        out.graph.num_nodes() - 1, out.declared_nodes));
    return out;
  }

  /// Lex the rest of the source, throwing its first lexical error if it has
  /// one. A lexical error anywhere in a scheme is reported ahead of a
  /// grammar error on an earlier line (tokenize_scheme and parse_scheme
  /// agree on which inputs fail, and how), so call this before reporting
  /// one.
  void lex_to_end() {
    while (!at(TokenKind::kEnd)) token_ = lexer_.next();
  }

 private:
  void parse_comm(ParsedScheme& out, double default_size) {
    // A view of the source, which outlives the parse: the graph copies the
    // characters into its label buffer.
    const std::string_view label =
        expect(TokenKind::kIdent, "comm label").text;
    const int first = parse_node("source node");
    int src = first;
    int dst = 0;
    if (at(TokenKind::kArrow)) {
      advance();
      dst = parse_node("destination node");
    } else if (at(TokenKind::kBackArrow)) {
      advance();
      // "a 3 <- 0" means node 0 sends to node 3.
      dst = first;
      src = parse_node("source node");
    } else {
      BWS_THROW(where() + "expected '->' or '<-' after node id");
    }
    double size = default_size;
    if (at(TokenKind::kIdent) && peek().text == "size") {
      advance();
      size = parse_size_token();
    }
    out.graph.add(label, src, dst, size);
  }

  [[nodiscard]] const Token& peek() const { return token_; }
  [[nodiscard]] bool at(TokenKind kind) const { return token_.kind == kind; }
  void advance() {
    if (!at(TokenKind::kEnd)) token_ = lexer_.next();
  }

  Token expect(TokenKind kind, const char* what) {
    BWS_CHECK(at(kind), where() + "expected " + what + " (" +
                            to_string(kind) + "), got " +
                            to_string(peek().kind) + " '" +
                            std::string(peek().text) + "'");
    const Token token = token_;
    advance();
    return token;
  }

  int parse_int(const char* what) {
    const Token token = expect(TokenKind::kNumber, what);
    long v = 0;
    switch (try_parse_long(token.text, v, std::numeric_limits<long>::min(),
                           std::numeric_limits<int>::max())) {
      case ParseIntStatus::kOk:
        BWS_CHECK(v >= 0, where() + what + " must be non-negative");
        return static_cast<int>(v);
      case ParseIntStatus::kMalformed:
        BWS_THROW(where() + what + " must be an integer, got '" +
                  std::string(token.text) + "'");
      case ParseIntStatus::kOutOfRange:
        break;
    }
    BWS_THROW(where() + what + " out of range: '" + std::string(token.text) +
              "'");
  }

  /// A node id below kMaxCount, so no scheme needs more nodes than that.
  int parse_node(const char* what) {
    const int node = parse_int(what);
    BWS_CHECK(node < kMaxCount,
              where() + strformat("%s %d exceeds the limit of %d nodes", what,
                                  node, kMaxCount));
    return node;
  }

  /// A finite size: an infinite message never drains, so its replay would
  /// end in "simulation deadlock".
  double parse_size_token() {
    const Token token = expect(TokenKind::kNumber, "size literal");
    const double size = parse_size(token.text);
    BWS_CHECK(std::isfinite(size), strformat("line %d: size ", token.line) +
                                       std::string(token.text) +
                                       " is not finite");
    return size;
  }

  void end_statement() {
    if (at(TokenKind::kEnd)) return;
    expect(TokenKind::kNewline, "end of statement");
    skip_newlines();
  }

  void skip_newlines() {
    while (at(TokenKind::kNewline)) advance();
  }

  [[nodiscard]] std::string where() const {
    return strformat("line %d: ", peek().line);
  }

  SchemeLexer lexer_;
  Token token_;
};

}  // namespace

ParsedScheme parse_scheme(std::string_view source) {
  Parser parser(source);
  try {
    return parser.parse();
  } catch (const Error&) {
    parser.lex_to_end();  // throws the first lexical error, if any
    throw;
  }
}

ParsedScheme parse_scheme_file(const std::string& path) {
  const std::string text = read_text_file(path, "scheme");
  try {
    return parse_scheme(text);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

std::string to_scheme_text(const CommGraph& graph, const std::string& name) {
  std::ostringstream os;
  if (!name.empty()) os << "scheme \"" << name << "\"\n";
  os << "nodes " << graph.num_nodes() << "\n";
  for (CommId i = 0; i < graph.size(); ++i) {
    const auto& c = graph.comm(i);
    os << "comm " << graph.label(i) << " " << c.src << " -> " << c.dst
       << " size " << strformat("%.0f", c.bytes) << "\n";
  }
  return os.str();
}

}  // namespace bwshare::graph
