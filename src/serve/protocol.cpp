#include "serve/protocol.hpp"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"
#include "util/strings.hpp"

namespace bwshare::serve {

namespace {

class FlatJsonParser {
 public:
  explicit FlatJsonParser(std::string_view text) : text_(text) {}

  JsonObject parse() {
    JsonObject obj;
    skip_ws();
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
    } else {
      while (true) {
        skip_ws();
        BWS_CHECK(peek() == '"',
                  strformat("serve request: expected a key at column %zu",
                            pos_ + 1));
        std::string key = parse_string();
        for (const auto& [k, v] : obj) {
          BWS_CHECK(k != key,
                    strformat("serve request: duplicate key \"%s\"",
                              key.c_str()));
        }
        skip_ws();
        expect(':');
        skip_ws();
        obj.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    }
    skip_ws();
    BWS_CHECK(pos_ == text_.size(),
              strformat("serve request: trailing content at column %zu",
                        pos_ + 1));
    return obj;
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  void expect(char c) {
    BWS_CHECK(peek() == c,
              strformat("serve request: expected '%c' at column %zu", c,
                        pos_ + 1));
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      BWS_CHECK(pos_ < text_.size(),
                "serve request: unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      BWS_CHECK(pos_ < text_.size(),
                "serve request: unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          BWS_CHECK(pos_ + 4 <= text_.size(),
                    "serve request: truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') digit = static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              digit = static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              digit = static_cast<unsigned>(h - 'A' + 10);
            else
              BWS_THROW("serve request: bad \\u escape");
            code = code * 16 + digit;
          }
          // ASCII only; anything beyond it has no business in a request.
          BWS_CHECK(code < 0x80,
                    "serve request: non-ASCII \\u escapes are not supported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default:
          BWS_THROW(strformat("serve request: bad escape '\\%c'", e));
      }
    }
  }

  JsonValue parse_value() {
    JsonValue v;
    char c = peek();
    if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
      return v;
    }
    if (c == '{' || c == '[') {
      BWS_THROW("serve request: nested objects/arrays are not supported "
                "(flat JSON only)");
    }
    const size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != ',' &&
           text_[pos_] != '}' && text_[pos_] != ' ' &&
           text_[pos_] != '\t') {
      ++pos_;
    }
    const std::string tok(text_.substr(start, pos_ - start));
    if (tok == "true" || tok == "false") {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = tok == "true";
      return v;
    }
    if (tok == "null") return v;  // kNull
    // Like strtod, skip a leading \v or \f, which JSON's whitespace
    // excludes (pinned in tests/util/test_number_grammar.cpp).
    std::string_view digits = tok;
    while (!digits.empty() && is_space(digits.front())) digits.remove_prefix(1);
    double num = 0.0;
    BWS_CHECK(try_parse_double(digits, num) && std::isfinite(num),
              strformat("serve request: bad value '%s'", tok.c_str()));
    v.kind = JsonValue::Kind::kNumber;
    v.num = num;
    v.str = tok;
    return v;
  }

  std::string_view text_;
  size_t pos_ = 0;
};

std::string want_string(const JsonValue& v, const char* key) {
  BWS_CHECK(v.kind == JsonValue::Kind::kString,
            strformat("serve request: \"%s\" must be a string", key));
  return v.str;
}

double want_number(const JsonValue& v, const char* key) {
  BWS_CHECK(v.kind == JsonValue::Kind::kNumber,
            strformat("serve request: \"%s\" must be a number", key));
  return v.num;
}

int want_int(const JsonValue& v, const char* key) {
  const double d = want_number(v, key);
  // Range first: casting a double beyond int's range is undefined.
  BWS_CHECK(d >= std::numeric_limits<int>::min() &&
                d <= std::numeric_limits<int>::max() && std::trunc(d) == d,
            strformat("serve request: \"%s\" must be an integer", key));
  return static_cast<int>(d);
}

uint64_t want_u64(const JsonValue& v, const char* key) {
  // Accept both 42 and "42" (a JSON double cannot carry every 64-bit
  // seed); both keep their raw spelling in v.str, parsed digits-only here.
  BWS_CHECK(v.kind == JsonValue::Kind::kNumber ||
                v.kind == JsonValue::Kind::kString,
            strformat("serve request: \"%s\" must be an unsigned integer",
                      key));
  uint64_t out = 0;
  BWS_CHECK(try_parse_u64(v.str, out) == ParseIntStatus::kOk,
            strformat("serve request: \"%s\" must be an unsigned integer, "
                      "got '%s'",
                      key, v.str.c_str()));
  return out;
}

}  // namespace

JsonObject parse_flat_json_object(std::string_view line) {
  return FlatJsonParser(line).parse();
}

Query query_from_json(const JsonObject& obj) {
  Query q;
  for (const auto& [key, value] : obj) {
    if (key == "op") {
      const std::string op = want_string(value, "op");
      BWS_CHECK(op == "query",
                strformat("serve request: unexpected op \"%s\" in a query "
                          "batch",
                          op.c_str()));
    } else if (key == "id") {
      q.id = want_string(value, "id");
    } else if (key == "scheme") {
      q.scheme = want_string(value, "scheme");
    } else if (key == "scheme_text") {
      q.scheme_text = want_string(value, "scheme_text");
    } else if (key == "trace") {
      q.trace = want_string(value, "trace");
    } else if (key == "trace_text") {
      q.trace_text = want_string(value, "trace_text");
    } else if (key == "network") {
      q.network = want_string(value, "network");
    } else if (key == "model") {
      q.model = want_string(value, "model");
    } else if (key == "nodes") {
      q.nodes = want_int(value, "nodes");
    } else if (key == "cores") {
      q.cores = want_int(value, "cores");
    } else if (key == "schedule") {
      q.schedule = want_string(value, "schedule");
    } else if (key == "churn") {
      q.churn = want_number(value, "churn");
    } else if (key == "background") {
      q.background = want_number(value, "background");
    } else if (key == "seed") {
      q.seed = want_u64(value, "seed");
    } else {
      BWS_THROW(strformat("serve request: unknown key \"%s\"", key.c_str()));
    }
  }
  return q;
}

std::string response_to_json(const Response& r) {
  std::string out = "{";
  out += strformat("\"id\":\"%s\"", util::json_escape(r.id).c_str());
  out += strformat(",\"ok\":%s", r.ok ? "true" : "false");
  out += strformat(",\"source\":\"%s\"", to_string(r.source).c_str());
  if (r.fingerprint != 0) {
    out += strformat(",\"fingerprint\":\"%s\"",
                     util::hash_hex(r.fingerprint).c_str());
  }
  if (!r.ok) {
    out += strformat(",\"error\":\"%s\"",
                     util::json_escape(r.error).c_str());
    out += "}";
    return out;
  }
  const eval::SweepCell& cell = r.result->cell;
  out += strformat(",\"workload\":\"%s\"",
                   util::json_escape(cell.workload).c_str());
  out += strformat(",\"network\":\"%s\"",
                   util::json_escape(cell.network).c_str());
  out += strformat(",\"model\":\"%s\"",
                   util::json_escape(cell.model).c_str());
  out += strformat(",\"nodes\":%d,\"cores\":%d", cell.nodes, cell.cores);
  out += strformat(",\"policy\":\"%s\"",
                   util::json_escape(cell.policy).c_str());
  out += strformat(",\"tasks\":%d", cell.units);
  out += strformat(",\"measured_s\":%s",
                   util::format_fixed(cell.measured_s, 9).c_str());
  out += strformat(",\"predicted_s\":%s",
                   util::format_fixed(cell.predicted_s, 9).c_str());
  out += strformat(",\"eabs_pct\":%s",
                   util::format_fixed(cell.eabs_pct, 6).c_str());
  out += strformat(",\"result_hash\":\"%s\"",
                   util::hash_hex(r.result->result_hash).c_str());
  out += "}";
  return out;
}

std::string stats_to_json(const ServiceStats& s) {
  std::string out = "{\"op\":\"stats\"";
  const auto field = [&out](const char* name, uint64_t v) {
    out += strformat(",\"%s\":%llu", name,
                     static_cast<unsigned long long>(v));
  };
  field("queries", s.queries);
  field("errors", s.errors);
  field("replays", s.replays);
  field("cache_hits", s.cache_hits);
  field("coalesced", s.coalesced);
  field("warm_replays", s.warm_replays);
  field("solve_hits", s.solve_hits);
  field("solve_misses", s.solve_misses);
  field("result_evictions", s.result_evictions);
  field("solve_evictions", s.solve_evictions);
  field("cached_results", s.cached_results);
  field("stored_solutions", s.stored_solutions);
  out += "}";
  return out;
}

size_t run_serve_loop(std::istream& in, std::ostream& out,
                      const ServiceConfig& config) {
  QueryService service(config);
  std::vector<Query> pending;
  size_t failures = 0;

  const auto flush = [&] {
    if (pending.empty()) return;
    std::vector<Query> batch;
    batch.swap(pending);
    for (const Response& r : service.query_batch(batch)) {
      if (!r.ok) ++failures;
      out << response_to_json(r) << '\n';
    }
    out.flush();
  };

  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) {
      flush();
      continue;
    }
    std::string protocol_error;
    try {
      JsonObject obj = parse_flat_json_object(trimmed);
      bool is_stats = false;
      for (const auto& [key, value] : obj) {
        if (key == "op" && value.kind == JsonValue::Kind::kString &&
            value.str == "stats") {
          is_stats = true;
        }
      }
      if (is_stats) {
        // Counters reflect everything before this line: flush first.
        flush();
        out << stats_to_json(service.stats()) << '\n';
        out.flush();
        continue;
      }
      pending.push_back(query_from_json(obj));
      continue;
    } catch (const std::exception& e) {
      protocol_error = e.what();
    }
    // A malformed line still answers in order: serve what came before it,
    // then report it.
    flush();
    Response r;
    r.ok = false;
    r.source = Source::kError;
    r.error = protocol_error;
    ++failures;
    out << response_to_json(r) << '\n';
    out.flush();
  }
  flush();
  return failures;
}

}  // namespace bwshare::serve
