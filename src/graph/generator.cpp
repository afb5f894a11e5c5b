#include "graph/generator.hpp"

#include <charconv>
#include <cmath>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace bwshare::graph {

std::string to_string(SchemeFamily family) {
  switch (family) {
    case SchemeFamily::kRing: return "ring";
    case SchemeFamily::kHotspot: return "hotspot";
    case SchemeFamily::kUniformRandom: return "random";
    case SchemeFamily::kAllToAll: return "alltoall";
  }
  BWS_THROW("invalid SchemeFamily");
}

SchemeFamily scheme_family_from_string(std::string_view name) {
  if (name == "ring") return SchemeFamily::kRing;
  if (name == "hotspot") return SchemeFamily::kHotspot;
  if (name == "random") return SchemeFamily::kUniformRandom;
  if (name == "alltoall") return SchemeFamily::kAllToAll;
  BWS_THROW("unknown scheme family '" + std::string(name) +
            "' (expected ring, hotspot, random or alltoall)");
}

void GeneratorSpec::validate() const {
  BWS_CHECK(nodes >= 2 && nodes <= 256,
            strformat("generator: nodes must be in [2, 256], got %d", nodes));
  if (family == SchemeFamily::kAllToAll) {
    // The Myrinet model enumerates maximal independent sets of the conflict
    // graph; on all-to-all that cost grows ~10x per node (measured: 2 s at
    // 8 nodes, 19 s at 9), so larger instances would wedge a whole sweep.
    BWS_CHECK(nodes <= 8,
              strformat("generator: alltoall supports at most 8 nodes "
                        "(got %d); the conflict state space explodes beyond",
                        nodes));
  }
  if (family == SchemeFamily::kUniformRandom) {
    BWS_CHECK(comms >= 0 && comms <= 4096,
              strformat("generator: comms must be in [0, 4096], got %d",
                        comms));
  } else {
    BWS_CHECK(comms == 0, "generator: comms is only meaningful for the "
                          "random family");
  }
  BWS_CHECK(bytes > 0.0 && std::isfinite(bytes),
            strformat("generator: bytes must be finite and > 0, got %g",
                      bytes));
  BWS_CHECK(spread >= 0.0 && spread <= 8.0,
            strformat("generator: spread must be in [0, 8], got %g", spread));
}

GeneratorSpec parse_generator_spec(std::string_view text) {
  const auto colon = text.find(':');
  BWS_CHECK(colon != std::string_view::npos,
            "generator spec must look like 'family:key=value,...', got '" +
                std::string(text) + "'");
  GeneratorSpec spec;
  spec.family = scheme_family_from_string(trim(text.substr(0, colon)));
  const std::string_view params = text.substr(colon + 1);
  if (!trim(params).empty()) {
    // Comma-separated items, empty ones included, each a view of `text`.
    for (std::string_view rest = params;;) {
      const size_t comma = rest.find(',');
      const std::string_view item = rest.substr(0, comma);
      const auto eq = item.find('=');
      BWS_CHECK(eq != std::string_view::npos,
                "generator parameter '" + std::string(item) +
                    "' is not key=value");
      const std::string_view key = trim(item.substr(0, eq));
      const std::string_view value = trim(item.substr(eq + 1));
      // Bounds-checked before the int cast: strtol's long would otherwise
      // wrap values like 2^32+2 into the valid range silently. The messages
      // print the value as a C string, up to a NUL byte.
      const auto parse_int = [value](const char* what) {
        long v = 0;
        const auto st = try_parse_long(value, v, -kMaxCount, kMaxCount);
        const int len = static_cast<int>(value.size());
        BWS_CHECK(st != ParseIntStatus::kMalformed,
                  strformat("generator: %s expects an integer, got '%.*s'",
                            what, len, value.data()));
        BWS_CHECK(st == ParseIntStatus::kOk,
                  strformat("generator: %s value '%.*s' is out of range", what,
                            len, value.data()));
        return static_cast<int>(v);
      };
      if (key == "nodes") {
        spec.nodes = parse_int("nodes");
      } else if (key == "comms") {
        spec.comms = parse_int("comms");
      } else if (key == "bytes") {
        spec.bytes = parse_size(value);
      } else if (key == "spread") {
        // An empty value reads as 0 and a NUL byte ends the value: spread
        // keeps the set of spellings it accepted as a C string
        // (tests/util/test_number_grammar.cpp).
        const std::string_view number = value.substr(0, value.find('\0'));
        spec.spread = 0.0;
        BWS_CHECK(number.empty() || try_parse_double(number, spec.spread),
                  "generator: spread expects a number, got '" +
                      std::string(value) + "'");
      } else {
        BWS_THROW("generator: unknown parameter '" + std::string(key) +
                  "' (expected nodes, comms, bytes or spread)");
      }
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  spec.validate();
  return spec;
}

namespace {

double draw_bytes(const GeneratorSpec& spec, Rng& rng) {
  if (spec.spread == 0.0) return spec.bytes;
  return spec.bytes * std::exp2(rng.uniform(-spec.spread, spec.spread));
}

/// Writes a generated comm's label, "c<a>" or, when b >= 0, "c<a>_<b>",
/// into `buf`: the text strformat("c%d") or strformat("c%d_%d") gives,
/// without a std::string per comm.
std::string_view comm_label(char (&buf)[32], int a, int b = -1) {
  buf[0] = 'c';
  // An int takes at most 11 characters, so "c<a>" ends by buf + 12.
  char* end = std::to_chars(buf + 1, buf + 12, a).ptr;
  if (b >= 0) {
    *end = '_';
    end = std::to_chars(end + 1, buf + sizeof(buf), b).ptr;
  }
  return {buf, static_cast<size_t>(end - buf)};
}

}  // namespace

CommGraph generate_scheme(const GeneratorSpec& spec, uint64_t seed) {
  spec.validate();
  // Salt the seed with the family so e.g. ring and hotspot at the same seed
  // do not share their size draws.
  uint64_t salt = seed ^ (0x9e3779b97f4a7c15ULL *
                          (static_cast<uint64_t>(spec.family) + 1));
  Rng rng(splitmix64(salt));
  CommGraph g;
  char label[32];
  const int n = spec.nodes;
  switch (spec.family) {
    case SchemeFamily::kRing:
      for (int i = 0; i < n; ++i) {
        g.add(comm_label(label, i), i, (i + 1) % n, draw_bytes(spec, rng));
      }
      break;
    case SchemeFamily::kHotspot:
      // Node 0 is the hot spot; node 1 always sends into it so every
      // instance has at least one income conflict.
      for (int v = 1; v < n; ++v) {
        const bool into_hotspot = v == 1 || rng.below(2) == 0;
        const int src = into_hotspot ? v : 0;
        const int dst = into_hotspot ? 0 : v;
        g.add(comm_label(label, v - 1), src, dst, draw_bytes(spec, rng));
      }
      break;
    case SchemeFamily::kUniformRandom: {
      const int m = spec.comms == 0 ? 2 * n : spec.comms;
      for (int k = 0; k < m; ++k) {
        const int src = static_cast<int>(rng.below(static_cast<uint64_t>(n)));
        int dst = static_cast<int>(rng.below(static_cast<uint64_t>(n - 1)));
        if (dst >= src) ++dst;  // uniform over the n-1 non-self targets
        g.add(comm_label(label, k), src, dst, draw_bytes(spec, rng));
      }
      break;
    }
    case SchemeFamily::kAllToAll:
      for (int src = 0; src < n; ++src) {
        for (int dst = 0; dst < n; ++dst) {
          if (src == dst) continue;
          g.add(comm_label(label, src, dst), src, dst, draw_bytes(spec, rng));
        }
      }
      break;
  }
  return g;
}

void ChurnSpec::validate() const {
  BWS_CHECK(rate >= 0.0 && std::isfinite(rate),
            strformat("churn: rate must be finite and >= 0, got %g", rate));
  BWS_CHECK(horizon > 0.0 && std::isfinite(horizon),
            strformat("churn: horizon must be finite and > 0, got %g",
                      horizon));
  BWS_CHECK(rate * horizon <= kMaxCount,
            strformat("churn: rate * horizon must be at most %d events, "
                      "got %g",
                      kMaxCount, rate * horizon));
  // The largest bench cluster (bench/engine_scaling --nodes 65536), as for
  // BackgroundSpec; each drawn event costs O(log nodes).
  BWS_CHECK(nodes >= 2 && nodes <= 65536,
            strformat("churn: nodes must be in [2, 65536], got %d", nodes));
  BWS_CHECK(p_fail >= 0.0 && p_fail <= 1.0,
            strformat("churn: p_fail must be in [0, 1], got %g", p_fail));
}

namespace {

/// The churn generator's up flags as a Fenwick tree of up counts: node v's
/// flag sits at 1-based index v + 1, all nodes start up, and kth() walks
/// down the tree to the k-th up (or down) node in node order in
/// O(log nodes). A block's down count is its size minus its up count.
class UpIndex {
 public:
  explicit UpIndex(int nodes) : tree_(static_cast<size_t>(nodes) + 1) {
    for (int i = 1; i <= nodes; ++i) tree_[static_cast<size_t>(i)] = i & -i;
    while (top_ * 2 <= nodes) top_ *= 2;
  }

  void set(int node, bool up) {
    const int size = static_cast<int>(tree_.size());
    for (int i = node + 1; i < size; i += i & -i)
      tree_[static_cast<size_t>(i)] += up ? 1 : -1;
  }

  /// The k-th (0-based) node whose flag is `up`; k must be below their count.
  [[nodiscard]] int kth(int k, bool up) const {
    int pos = 0;  // nodes [0, pos) hold fewer than k + 1 matches
    for (int step = top_; step > 0; step /= 2) {
      const int next = pos + step;
      if (next >= static_cast<int>(tree_.size())) continue;
      // tree_[next] covers nodes [pos, next): `step` of them, since pos is
      // a multiple of 2 * step here.
      const int ups = tree_[static_cast<size_t>(next)];
      const int count = up ? ups : step - ups;
      if (count <= k) {
        pos = next;
        k -= count;
      }
    }
    return pos;
  }

 private:
  std::vector<int> tree_;
  int top_ = 1;  // largest power of two <= nodes
};

}  // namespace

std::vector<ChurnEvent> generate_churn(const ChurnSpec& spec, uint64_t seed) {
  spec.validate();
  std::vector<ChurnEvent> script;
  if (spec.rate == 0.0) return script;
  uint64_t salt = seed ^ 0xc2b2ae3d27d4eb4fULL;  // keep churn draws disjoint
  Rng rng(splitmix64(salt));                     // from scheme/background
  UpIndex index(spec.nodes);
  int num_up = spec.nodes;
  double t = 0.0;
  while (true) {
    t += rng.exponential(spec.rate);
    if (t >= spec.horizon) break;
    // Departures target an up node, joins a down node: the pick-th candidate
    // in node order, so the draw only depends on (spec, seed).
    const bool departure = num_up == spec.nodes ||
                           (num_up > 0 && rng.uniform() < 0.5);
    const int pool = departure ? num_up : spec.nodes - num_up;
    if (pool == 0) continue;  // every node down and the coin said departure
    const int pick = static_cast<int>(rng.below(static_cast<uint64_t>(pool)));
    ChurnEvent ev;
    ev.time = t;
    ev.node = index.kth(pick, departure);
    if (departure) {
      ev.kind = rng.uniform() < spec.p_fail ? ChurnKind::kFail
                                            : ChurnKind::kLeave;
      --num_up;
    } else {
      ev.kind = ChurnKind::kJoin;
      ++num_up;
    }
    index.set(ev.node, !departure);
    script.push_back(ev);
  }
  return script;
}

void BackgroundSpec::validate() const {
  BWS_CHECK(rate >= 0.0 && std::isfinite(rate),
            strformat("background: rate must be finite and >= 0, got %g",
                      rate));
  BWS_CHECK(horizon > 0.0 && std::isfinite(horizon),
            strformat("background: horizon must be finite and > 0, got %g",
                      horizon));
  BWS_CHECK(rate * horizon <= kMaxCount,
            strformat("background: rate * horizon must be at most %d flows, "
                      "got %g",
                      kMaxCount, rate * horizon));
  BWS_CHECK(nodes >= 2 && nodes <= 65536,
            strformat("background: nodes must be in [2, 65536], got %d",
                      nodes));
  BWS_CHECK(bytes > 0.0, strformat("background: bytes must be > 0, got %g",
                                   bytes));
  BWS_CHECK(spread >= 0.0 && spread <= 8.0,
            strformat("background: spread must be in [0, 8], got %g",
                      spread));
}

std::vector<BackgroundFlow> generate_background(const BackgroundSpec& spec,
                                                uint64_t seed) {
  spec.validate();
  std::vector<BackgroundFlow> script;
  if (spec.rate == 0.0) return script;
  uint64_t salt = seed ^ 0x165667b19e3779f9ULL;  // disjoint from churn draws
  Rng rng(splitmix64(salt));
  const auto n = static_cast<uint64_t>(spec.nodes);
  double t = 0.0;
  while (true) {
    t += rng.exponential(spec.rate);
    if (t >= spec.horizon) break;
    BackgroundFlow f;
    f.time = t;
    f.src = static_cast<int>(rng.below(n));
    f.dst = static_cast<int>(rng.below(n - 1));
    if (f.dst >= f.src) ++f.dst;  // uniform over the n-1 non-self targets
    f.bytes = spec.bytes;
    if (spec.spread > 0.0) {
      f.bytes *= std::exp2(rng.uniform(-spec.spread, spec.spread));
    }
    script.push_back(f);
  }
  return script;
}

}  // namespace bwshare::graph
