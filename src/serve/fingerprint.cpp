#include "serve/fingerprint.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "graph/generator.hpp"
#include "graph/scheme_parser.hpp"
#include "models/registry.hpp"
#include "sim/events.hpp"
#include "sim/trace_io.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/limits.hpp"
#include "util/strings.hpp"

namespace bwshare::serve {

namespace {

// Both mixers absorb pure workload content. Labels, file paths and scheme
// names are display-only and deliberately absent.

/// A scheme's graph: what sim::trace_from_scheme lifts it from (the node
/// count and every comm, in order), at three words per comm.
void mix_scheme(util::StructuralHash& h, const graph::CommGraph& graph) {
  h.mix_i64(graph.num_nodes());
  h.mix_i64(graph.size());
  for (const graph::Comm& c : graph.comms()) {
    h.mix_i64(c.src);
    h.mix_i64(c.dst);
    h.mix_f64(c.bytes);
  }
}

/// A trace: its event content, per task in task order.
void mix_trace(util::StructuralHash& h, const sim::AppTrace& trace) {
  h.mix_i64(trace.num_tasks());
  for (sim::TaskId t = 0; t < trace.num_tasks(); ++t) {
    const sim::TaskProgram& prog = trace.program(t);
    h.mix_u64(prog.size());
    for (const sim::Event& e : prog) {
      h.mix_i64(static_cast<int64_t>(e.kind));
      h.mix_i64(e.peer);
      h.mix_f64(e.bytes);
      h.mix_f64(e.seconds);
    }
  }
}

}  // namespace

CanonicalQuery plan_query(const Query& q) {
  CanonicalQuery cq;
  const int workloads = (q.scheme.empty() ? 0 : 1) +
                        (q.scheme_text.empty() ? 0 : 1) +
                        (q.trace.empty() ? 0 : 1) +
                        (q.trace_text.empty() ? 0 : 1);
  BWS_CHECK(workloads == 1,
            "query needs exactly one workload field: scheme, scheme_text, "
            "trace or trace_text");

  cq.tech = topo::network_tech_from_string(q.network);
  // Resolve "network" to the interconnect's own model *before* hashing, so
  // {"model":"network"} and the explicit name are the same query.
  cq.model = (q.model == "network" || q.model.empty()
                  ? models::model_for(cq.tech)
                  : models::make_model(q.model))
                 ->name();

  BWS_CHECK(q.nodes >= 1 && q.nodes <= kMaxCount,
            strformat("query: nodes must be in [1, %d], got %d", kMaxCount,
                      q.nodes));
  BWS_CHECK(q.cores >= 1 && q.cores <= kMaxCount,
            strformat("query: cores must be in [1, %d], got %d", kMaxCount,
                      q.cores));
  cq.cores = q.cores;
  cq.policy = sim::scheduling_policy_from_string(q.schedule);
  BWS_CHECK(q.churn >= 0.0 && std::isfinite(q.churn),
            strformat("query: churn must be finite and >= 0, got %g",
                      q.churn));
  BWS_CHECK(q.background >= 0.0 && std::isfinite(q.background),
            strformat("query: background must be finite and >= 0, got %g",
                      q.background));
  cq.churn = q.churn;
  cq.background = q.background;
  cq.seed = q.seed;

  // Resolve the workload: a trace to its validated trace, a scheme —
  // builtin, file, generator or inline — to its graph. The cluster grows
  // to fit a scheme, mirroring eval::run_cell.
  if (!q.trace.empty()) {
    cq.workload = eval::resolve_trace_workload(q.trace);
    cq.nodes = q.nodes;
  } else if (!q.trace_text.empty()) {
    auto trace = sim::read_trace(q.trace_text);
    trace.validate();
    cq.workload.key = "trace_text";
    cq.workload.trace =
        std::make_shared<const sim::AppTrace>(std::move(trace));
    cq.nodes = q.nodes;
  } else {
    if (!q.scheme.empty()) {
      auto w = eval::resolve_scheme_workload(q.scheme);
      cq.scheme = w.generator ? std::make_shared<const graph::CommGraph>(
                                    graph::generate_scheme(*w.generator,
                                                           q.seed))
                              : std::move(w.scheme);
      cq.workload.key = q.scheme;
    } else {
      auto parsed = graph::parse_scheme(q.scheme_text);
      cq.scheme =
          std::make_shared<const graph::CommGraph>(std::move(parsed.graph));
      cq.workload.key =
          parsed.name.empty() ? std::string("scheme_text") : parsed.name;
    }
    BWS_CHECK(cq.scheme->size() > 0, "query: scheme has no communications");
    cq.nodes = std::max(q.nodes, cq.scheme->num_nodes());
  }

  // The seed only reaches the replay through random placement and the
  // scenario scripts (a generator expansion is already baked into the
  // graph above); otherwise canonicalize it away.
  cq.seed_live = cq.policy == sim::SchedulingPolicy::kRandom ||
                 cq.churn > 0.0 || cq.background > 0.0;

  util::StructuralHash h;
  h.mix_str("bwshare.serve.query.v2");
  if (cq.scheme) {
    h.mix_str("scheme");
    mix_scheme(h, *cq.scheme);
  } else {
    h.mix_str("trace");
    mix_trace(h, *cq.workload.trace);
  }
  h.mix_i64(static_cast<int64_t>(cq.tech));
  h.mix_str(cq.model);
  h.mix_i64(cq.nodes);
  h.mix_i64(cq.cores);
  h.mix_i64(static_cast<int64_t>(cq.policy));
  h.mix_f64(cq.churn);
  h.mix_f64(cq.background);
  h.mix_u64(cq.seed_live ? cq.seed : 0);
  cq.fingerprint = h.digest();
  return cq;
}

void lift_query(CanonicalQuery& cq) {
  if (cq.workload.is_trace()) return;
  // Every served scheme replays through the one run_simulation path the
  // conformance suite compares against.
  cq.workload.trace = std::make_shared<const sim::AppTrace>(
      sim::trace_from_scheme(*cq.scheme));
}

CanonicalQuery canonicalize(const Query& q) {
  CanonicalQuery cq = plan_query(q);
  lift_query(cq);
  return cq;
}

uint64_t hash_sim_result(const sim::SimResult& r) {
  util::StructuralHash h;
  h.mix_f64(r.makespan);
  h.mix_u64(r.aborted_comms);
  h.mix_u64(r.background_comms);
  h.mix_u64(r.background_skipped);
  h.mix_u64(r.comms.size());
  for (const sim::CommRecord& c : r.comms) {
    h.mix_i64(c.src_task);
    h.mix_i64(c.dst_task);
    h.mix_i64(c.src_node);
    h.mix_i64(c.dst_node);
    h.mix_f64(c.bytes);
    h.mix_f64(c.send_post);
    h.mix_f64(c.recv_post);
    h.mix_f64(c.start);
    h.mix_f64(c.finish);
    h.mix_f64(c.penalty);
    h.mix_f64(c.sender_time);
    h.mix_bool(c.background);
    h.mix_bool(c.aborted);
  }
  h.mix_u64(r.tasks.size());
  for (const sim::TaskStats& t : r.tasks) {
    h.mix_f64(t.finish_time);
    h.mix_f64(t.compute_seconds);
    h.mix_f64(t.send_blocked_seconds);
    h.mix_f64(t.recv_blocked_seconds);
    h.mix_f64(t.barrier_wait_seconds);
    h.mix_i64(t.sends);
    h.mix_i64(t.recvs);
  }
  return h.digest();
}

}  // namespace bwshare::serve
