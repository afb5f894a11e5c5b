// Lexer for the communication-scheme description language (the paper's §IV-B
// mentions "a specific description language" used to feed schemes to their
// measurement software; this is our equivalent).
//
// Token kinds: identifiers, numbers (with optional size suffix), strings,
// '->', '<-', punctuation, newlines (significant), comments '#...'.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace bwshare::graph {

enum class TokenKind {
  kIdent,
  kNumber,    // raw text kept; may carry a size suffix ("20M", "4MiB")
  kString,    // double-quoted
  kArrow,     // ->
  kBackArrow, // <-
  kLBrace,
  kRBrace,
  kComma,
  kNewline,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  /// The token's characters, borrowed from the source being lexed (a
  /// string's content without its quotes), so only valid while that source
  /// is; "\\n" for a newline and "" for the end of input.
  std::string_view text;
  int line = 0;
};

[[nodiscard]] std::string to_string(TokenKind kind);

/// Pull lexer over a borrowed scheme source: each next() returns one token,
/// with consecutive newlines collapsed and leading ones dropped, then a
/// final newline and kEnd (repeated on every later call). Throws
/// bwshare::Error with line info on bad characters or unterminated strings.
class SchemeLexer {
 public:
  explicit SchemeLexer(std::string_view source) : src_(source) {}

  [[nodiscard]] Token next();

 private:
  Token emit(TokenKind kind, std::string_view text, int line) {
    last_ = kind;
    return Token{kind, text, line};
  }

  std::string_view src_;
  size_t pos_ = 0;
  int line_ = 1;
  // As if a newline came first, so leading blank lines yield no token.
  TokenKind last_ = TokenKind::kNewline;
};

/// Tokenize a whole scheme source (the tokens view `source`). Throws
/// bwshare::Error with line info on bad characters or unterminated strings.
[[nodiscard]] std::vector<Token> tokenize_scheme(std::string_view source);

}  // namespace bwshare::graph
