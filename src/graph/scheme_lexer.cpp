#include "graph/scheme_lexer.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::graph {

std::string to_string(TokenKind kind) {
  switch (kind) {
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kArrow: return "'->'";
    case TokenKind::kBackArrow: return "'<-'";
    case TokenKind::kLBrace: return "'{'";
    case TokenKind::kRBrace: return "'}'";
    case TokenKind::kComma: return "','";
    case TokenKind::kNewline: return "newline";
    case TokenKind::kEnd: return "end of input";
  }
  return "?";
}

namespace {
// The C locale's character classes, whatever locale the process runs in.
bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool is_ident_start(char c) { return is_alpha(c) || c == '_'; }
bool is_ident_char(char c) {
  return is_alpha(c) || is_digit(c) || c == '_' || c == '.';
}
bool is_number_char(char c) {
  // Keep suffixes attached: "20M", "4MiB", "1.5e6".
  return is_alpha(c) || is_digit(c) || c == '.' || c == '+' || c == '-';
}
}  // namespace

Token SchemeLexer::next() {
  const std::string_view src = src_;
  size_t& i = pos_;
  while (i < src.size()) {
    const char c = src[i];
    if (c == '\n') {
      const int line = line_++;
      ++i;
      if (last_ != TokenKind::kNewline) return emit(TokenKind::kNewline, "\\n", line);
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '#') {  // comment to end of line
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    const size_t start = i;
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '>') {
      i += 2;
      return emit(TokenKind::kArrow, src.substr(start, 2), line_);
    }
    if (c == '<' && i + 1 < src.size() && src[i + 1] == '-') {
      i += 2;
      return emit(TokenKind::kBackArrow, src.substr(start, 2), line_);
    }
    if (c == '{' || c == '}' || c == ',') {
      ++i;
      const TokenKind kind = c == '{'   ? TokenKind::kLBrace
                             : c == '}' ? TokenKind::kRBrace
                                        : TokenKind::kComma;
      return emit(kind, src.substr(start, 1), line_);
    }
    if (c == '"') {
      size_t j = i + 1;
      while (j < src.size() && src[j] != '"' && src[j] != '\n') ++j;
      BWS_CHECK(j < src.size() && src[j] == '"',
                strformat("line %d: unterminated string", line_));
      i = j + 1;
      return emit(TokenKind::kString, src.substr(start + 1, j - start - 1),
                  line_);
    }
    if (is_digit(c)) {
      size_t j = i;
      while (j < src.size() && is_number_char(src[j])) {
        // '+'/'-' only valid right after an exponent 'e'/'E'.
        if ((src[j] == '+' || src[j] == '-') &&
            !(j > i && (src[j - 1] == 'e' || src[j - 1] == 'E')))
          break;
        ++j;
      }
      i = j;
      return emit(TokenKind::kNumber, src.substr(start, j - start), line_);
    }
    if (is_ident_start(c)) {
      size_t j = i;
      while (j < src.size() && is_ident_char(src[j])) ++j;
      i = j;
      return emit(TokenKind::kIdent, src.substr(start, j - start), line_);
    }
    BWS_THROW(strformat("line %d: unexpected character '%c'", line_, c));
  }
  // The last statement still ends with a newline token.
  if (last_ != TokenKind::kNewline && last_ != TokenKind::kEnd)
    return emit(TokenKind::kNewline, "\\n", line_);
  return emit(TokenKind::kEnd, "", line_);
}

std::vector<Token> tokenize_scheme(std::string_view source) {
  SchemeLexer lexer(source);
  std::vector<Token> tokens;
  do {
    tokens.push_back(lexer.next());
  } while (tokens.back().kind != TokenKind::kEnd);
  return tokens;
}

}  // namespace bwshare::graph
