// Seeded synthetic communication-scheme generator — the scenario-diversity
// source for eval::Sweep campaigns. The four checked-in .scheme files and the
// paper's built-in figures cover a handful of shapes; the generator produces
// unbounded families of them, reproducibly from a single seed (util/rng.hpp):
//
//   ring      task i -> i+1 around `nodes` nodes (the §VI-D HPL pattern)
//   hotspot   every other node either sends into or receives from node 0
//             (seed-chosen direction per node; income/outgo congestion)
//   random    `comms` arcs with uniform endpoints, src != dst
//   alltoall  every ordered pair, the densest conflict structure
//
// Message sizes: uniform `bytes`, or a log-uniform mix when `spread` > 0
// (each size is bytes * 2^U(-spread, +spread)).
//
// Specs parse from the sweep axis syntax "family:key=value,...", e.g.
// "random:nodes=12,comms=18,bytes=4M,spread=1".
//
// This file is also the home of the *dynamic-cluster* scenario sources:
// seeded Poisson scripts of membership churn (join / leave / fail) and of
// background cross-traffic flows. They are plain data — the engine-side
// semantics live in sim/scenario.hpp — so that graph/ stays below sim/ in
// the layering.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "graph/comm_graph.hpp"

namespace bwshare::graph {

enum class SchemeFamily { kRing, kHotspot, kUniformRandom, kAllToAll };

[[nodiscard]] std::string to_string(SchemeFamily family);
[[nodiscard]] SchemeFamily scheme_family_from_string(std::string_view name);

struct GeneratorSpec {
  SchemeFamily family = SchemeFamily::kUniformRandom;
  /// Cluster nodes in the scheme; [2, 256] (alltoall: [2, 8], the Myrinet
  /// model's state enumeration is exponential in conflict density).
  int nodes = 8;
  /// Arc count for the random family only; 0 means 2 * nodes. Other
  /// families derive it from `nodes`.
  int comms = 0;
  /// Base message size in bytes, > 0 (paper figures use 4 MB / 20 MB).
  double bytes = 4e6;
  /// Size-mix exponent in [0, 8]: sizes are bytes * 2^U(-spread, +spread);
  /// 0 gives uniform sizes.
  double spread = 0.0;

  /// Throws bwshare::Error on any out-of-range parameter.
  void validate() const;
};

/// Parse "family:key=value,..." (keys: nodes, comms, bytes, spread; bytes
/// accepts util/strings.hpp size suffixes). "family:" alone means defaults.
/// Throws bwshare::Error on unknown family, unknown key, malformed value,
/// or an invalid resulting spec.
[[nodiscard]] GeneratorSpec parse_generator_spec(std::string_view text);

/// Deterministically expand `spec` with `seed`: identical (spec, seed) pairs
/// always yield identical graphs, independent of platform or thread count.
[[nodiscard]] CommGraph generate_scheme(const GeneratorSpec& spec,
                                        uint64_t seed);

// ---------------------------------------------------------------------------
// Membership churn scripts
// ---------------------------------------------------------------------------

enum class ChurnKind {
  kJoin,   ///< a down node comes (back) up
  kLeave,  ///< a node departs gracefully: in-flight transfers drain
  kFail    ///< a node crashes: its in-flight transfers abort immediately
};

/// One scripted membership event. `node` indexes the cluster the scenario is
/// replayed on; `time` is absolute simulation time in seconds.
struct ChurnEvent {
  double time = 0.0;
  ChurnKind kind = ChurnKind::kFail;
  int node = 0;
};

struct ChurnSpec {
  /// Poisson arrival rate of membership events, in events per second of
  /// simulated time; >= 0 (0 yields an empty script).
  double rate = 0.0;
  /// Script horizon in seconds, > 0. Events past the horizon are not drawn.
  /// rate * horizon, the expected event count, is at most kMaxCount
  /// (util/limits.hpp).
  double horizon = 1.0;
  /// Cluster size the script targets; [2, 65536].
  int nodes = 8;
  /// Probability that a departure is a kFail (vs kLeave); [0, 1].
  double p_fail = 0.5;

  /// Throws bwshare::Error on any out-of-range parameter.
  void validate() const;
};

/// Deterministically draw a membership script: Poisson arrivals at
/// `spec.rate` over [0, spec.horizon). The generator tracks the up/down set
/// (all nodes start up), so leaves/fails always target an up node and joins
/// a down node — scripts are self-consistent by construction. With every
/// node down, further departures are skipped until a join. Identical
/// (spec, seed) pairs yield identical scripts.
[[nodiscard]] std::vector<ChurnEvent> generate_churn(const ChurnSpec& spec,
                                                     uint64_t seed);

// ---------------------------------------------------------------------------
// Background cross-traffic scripts
// ---------------------------------------------------------------------------

/// One injected flow that contends for links without belonging to the
/// measured job: no task posts it and nothing blocks on it.
struct BackgroundFlow {
  double time = 0.0;  ///< injection time, seconds
  int src = 0;        ///< source cluster node
  int dst = 1;        ///< destination cluster node, != src
  double bytes = 0.0;
};

struct BackgroundSpec {
  /// Poisson injection rate in flows per second of simulated time; >= 0.
  double rate = 0.0;
  /// Script horizon in seconds, > 0; rate * horizon, the expected flow
  /// count, is at most kMaxCount (util/limits.hpp).
  double horizon = 1.0;
  /// Cluster size the script targets; [2, 65536]. Endpoints are drawn
  /// uniformly with src != dst.
  int nodes = 8;
  /// Base flow size in bytes, > 0.
  double bytes = 1e6;
  /// Size-mix exponent in [0, 8], same convention as GeneratorSpec::spread.
  double spread = 0.0;

  /// Throws bwshare::Error on any out-of-range parameter.
  void validate() const;
};

/// Deterministically draw a cross-traffic script: Poisson arrivals at
/// `spec.rate` over [0, spec.horizon), uniform endpoints, log-uniform sizes
/// when spread > 0. Identical (spec, seed) pairs yield identical scripts.
[[nodiscard]] std::vector<BackgroundFlow> generate_background(
    const BackgroundSpec& spec, uint64_t seed);

}  // namespace bwshare::graph
