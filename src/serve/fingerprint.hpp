// Query planning, lifting and fingerprinting for serve::QueryService
// (docs/SERVING.md).
//
// A Query arrives as surface syntax — a builtin scheme name, a .scheme or
// .trace path, inline scheme/trace text, axis spellings like "gige" or
// "RRN". Planning (plan_query) resolves all of it to *content*: a scheme
// workload — builtin, file, generator spec expanded with the query's seed,
// or inline — to its parsed graph::CommGraph, a trace workload to a
// validated sim::AppTrace, the interconnect and model to their registry
// identities, the cluster to its effective shape. The fingerprint is a
// util::StructuralHash over that resolved content:
//   * a scheme is fingerprinted by its graph content: its node count and
//     each comm's source, destination and bytes, in order;
//   * a trace is fingerprinted by its trace content: every task's events;
//   * so a scheme and the text of its lifted trace (write_trace of
//     sim::trace_from_scheme), sent as trace_text, are two cache lines
//     that replay the same trace and give the same result.
// Two queries that mean the same replay hash the same even when they were
// spelled differently (path vs inline text, "network" vs the explicit model
// name, renamed labels, a cluster too small for its scheme vs one already
// grown), and any semantically distinct field — one byte more, one node
// elsewhere — hashes differently.
//
// Lifting (lift_query) builds the replay's trace: a scheme is lifted
// through sim::trace_from_scheme. QueryService lifts only the queries it
// replays; a cache hit or a coalesced query is answered from the plan.
//
// Deliberately excluded from the fingerprint:
//   * `id` — client correlation tag, echoed verbatim;
//   * the seed, when it cannot affect the replay (placement policy is
//     deterministic and no churn/background script is drawn) — it is
//     canonicalized to 0 so "seed":7 and "seed":9 share a cache line;
//   * execution strategy (the verify oracles, the solve memo, thread
//     counts): the engine contract makes those bit-identical, so caching
//     across them is exactly as safe as caching across repeats.
//
// Stability: fingerprints inherit the util::StructuralHash contract — stable
// within one build, NOT across releases. Never persist them.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "eval/sweep.hpp"
#include "graph/comm_graph.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "topo/network.hpp"

namespace bwshare::serve {

/// One prediction request, as parsed off the wire (serve/protocol.hpp) or
/// built programmatically. Exactly one of scheme / scheme_text / trace /
/// trace_text must be set.
struct Query {
  /// Client correlation tag, echoed in the response; never fingerprinted.
  std::string id;
  /// Scheme workload, SweepSpec::schemes grammar: a builtin name
  /// (optionally "@SIZE"), a .scheme path, or a generator spec
  /// "family:key=value,...".
  std::string scheme;
  /// Inline scheme DSL source (docs/SCHEME_DSL.md).
  std::string scheme_text;
  /// Trace-file path (sim/trace_io format).
  std::string trace;
  /// Inline trace text.
  std::string trace_text;
  std::string network = "gige";
  /// Penalty model name, or "network" for the interconnect's own model.
  std::string model = "network";
  int nodes = 16;
  int cores = 2;
  std::string schedule = "RRN";
  /// Dynamic-cluster scenario rates (events/s resp. flows/s over a 1 s
  /// horizon — the sweep axes' convention).
  double churn = 0.0;
  double background = 0.0;
  /// Drives random placement, churn/background scripts and generator
  /// expansion. Inert (and canonicalized away) when none of those apply.
  uint64_t seed = 42;
};

/// A Query resolved to content plus its fingerprint.
struct CanonicalQuery {
  /// The replay's workload, always a trace workload once it has one: a
  /// trace query's trace from planning, a scheme query's from lift_query.
  /// `key` keeps the query's display spelling.
  eval::ResolvedWorkload workload;
  /// A scheme query's planned graph, which lift_query turns into
  /// `workload.trace`; null for a trace query.
  std::shared_ptr<const graph::CommGraph> scheme;
  topo::NetworkTech tech{};
  std::string model;  // resolved registry name
  int nodes = 0;      // effective: grown to fit a scheme workload
  int cores = 0;
  sim::SchedulingPolicy policy = sim::SchedulingPolicy::kRoundRobinNode;
  double churn = 0.0;
  double background = 0.0;
  uint64_t seed = 0;
  /// True when the seed can still influence the replay (random placement
  /// or a nonzero scenario rate); false means it was canonicalized to 0
  /// in the fingerprint.
  bool seed_live = false;
  uint64_t fingerprint = 0;
};

/// Resolve and fingerprint one query without building a scheme's trace.
/// Throws bwshare::Error on malformed input: no workload (or more than
/// one), unknown network/model/schedule, out-of-range shape or rates,
/// unparsable scheme/trace content.
[[nodiscard]] CanonicalQuery plan_query(const Query& q);

/// Give a planned query its replay trace: lift a scheme query's graph
/// through sim::trace_from_scheme into `cq.workload.trace`. A trace query
/// already has its trace, and is left as it is.
void lift_query(CanonicalQuery& cq);

/// plan_query, then lift_query: a query resolved to a replayable trace.
[[nodiscard]] CanonicalQuery canonicalize(const Query& q);

/// Content hash of a full replay result — every field bit_identical()
/// compares. Two SimResults hash equal iff a bitwise comparison passes
/// (modulo 64-bit collisions), which is what lets the serving conformance
/// suite pin "the cached answer IS the fresh answer" through one number.
[[nodiscard]] uint64_t hash_sim_result(const sim::SimResult& r);

}  // namespace bwshare::serve
