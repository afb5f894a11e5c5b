#include "serve/service.hpp"

#include <cmath>
#include <map>
#include <utility>

#include "eval/sweep.hpp"
#include "sim/solve_memo.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"

namespace bwshare::serve {

namespace {

/// Solve-memo salts separate the two replay sides (and the model on the
/// predicted side) so a measured component solution can never answer a
/// predicted lookup even when the induced subproblems coincide.
uint64_t memo_salt(const char* side, topo::NetworkTech tech,
                   const std::string& model) {
  util::StructuralHash h;
  h.mix_str("bwshare.serve.memo");
  h.mix_str(side);
  h.mix_i64(static_cast<int64_t>(tech));
  h.mix_str(model);
  return h.digest();
}

/// E_abs fallback for workloads whose tasks never block in a send.
///
/// `run_cell_detailed` reports the paper's §VI task-level metric: the mean
/// over tasks of |S_p - S_m| / S_m, where S is the per-task blocked-send
/// sum. Scheme queries are lifted to nonblocking traces (isend + wait_all,
/// sim::trace_from_scheme), so no task ever blocks in a send and that
/// metric is vacuously empty — it would read 0.000 while the makespans
/// visibly disagree. When the task-level metric has no signal, fall back
/// to the paper's fig-2 per-communication metric: the mean over paired
/// comm records of |T_p - T_m| / T_m. Both replays run the same trace
/// under the same placement and scenario, so records pair by index.
double comm_level_eabs(const sim::SimResult& measured,
                       const sim::SimResult& predicted) {
  BWS_CHECK(measured.comms.size() == predicted.comms.size(),
            "serve: measured/predicted comm record counts diverge");
  double total = 0.0;
  size_t count = 0;
  for (size_t i = 0; i < measured.comms.size(); ++i) {
    const sim::CommRecord& m = measured.comms[i];
    const sim::CommRecord& p = predicted.comms[i];
    if (m.background || m.aborted || p.background || p.aborted) continue;
    const double mt = m.finish - m.start;
    const double pt = p.finish - p.start;
    if (mt <= 0.0) continue;
    total += std::fabs(pt - mt) / mt * 100.0;
    ++count;
  }
  if (count == 0) return 0.0;
  return total / static_cast<double>(count);
}

/// True when at least one task accrued blocked-send time — i.e. the
/// task-level E_abs had something to average over.
bool has_task_level_signal(const sim::SimResult& measured) {
  for (sim::TaskId t = 0;
       t < static_cast<sim::TaskId>(measured.tasks.size()); ++t) {
    if (measured.task_comm_time(t) > 0.0) return true;
  }
  return false;
}

}  // namespace

std::string to_string(Source source) {
  switch (source) {
    case Source::kError: return "error";
    case Source::kCold: return "cold";
    case Source::kWarm: return "warm";
    case Source::kCache: return "cache";
    case Source::kCoalesced: return "coalesced";
  }
  BWS_THROW("unknown serve::Source");
}

/// One distinct replay a batch must execute: the canonical query, the
/// request slots it answers (leader first), and the per-replay solve memos
/// whose frozen tier is the service WarmStore.
struct QueryService::Job {
  CanonicalQuery cq;
  std::vector<size_t> request_slots;
  std::unique_ptr<sim::SolveMemo> measured_memo;
  std::unique_ptr<sim::SolveMemo> predicted_memo;
  // Filled by the parallel phase:
  std::shared_ptr<QueryResult> result;
  bool warm = false;
};

QueryService::QueryService(ServiceConfig config)
    : cfg_(config),
      results_(config.cache_capacity),
      solves_(config.memo_capacity) {
  BWS_CHECK(config.threads >= 0 && config.threads <= util::kMaxThreads,
            strformat("serve: threads must be in [0, %d], got %d",
                      util::kMaxThreads, config.threads));
}

Response QueryService::query(const Query& q) {
  return query_batch(std::span<const Query>(&q, 1)).front();
}

std::vector<Response> QueryService::query_batch(
    std::span<const Query> queries) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Response> responses(queries.size());
  std::vector<std::unique_ptr<Job>> jobs;
  // fingerprint -> job index, for single-flight coalescing within the batch
  std::map<uint64_t, size_t> planned;
  const auto reject = [this](Response& r, const std::exception& e) {
    r.ok = false;
    r.source = Source::kError;
    r.error = e.what();
    ++stats_.errors;
  };

  // Phase 1 — plan, sequentially in request order. Every cache and
  // coalescing decision happens here, before any replay runs, so the
  // response for each slot is fixed no matter which thread runs which
  // replay in phase 2. Cache hits and coalesced queries are answered from
  // the plan; only a new job's query is lifted to its replay trace.
  for (size_t i = 0; i < queries.size(); ++i) {
    Response& r = responses[i];
    r.id = queries[i].id;
    ++stats_.queries;
    CanonicalQuery cq;
    try {
      cq = plan_query(queries[i]);
    } catch (const std::exception& e) {
      reject(r, e);
      continue;
    }
    r.fingerprint = cq.fingerprint;
    if (auto hit = results_.lookup(cq.fingerprint)) {
      r.ok = hit->cell.ok;
      r.error = hit->cell.error;
      r.source = Source::kCache;
      r.result = std::move(hit);
      ++stats_.cache_hits;
      continue;
    }
    if (const auto it = planned.find(cq.fingerprint); it != planned.end()) {
      jobs[it->second]->request_slots.push_back(i);
      r.source = Source::kCoalesced;
      ++stats_.coalesced;
      continue;
    }
    try {
      lift_query(cq);
    } catch (const std::exception& e) {
      reject(r, e);
      continue;
    }
    auto job = std::make_unique<Job>();
    job->measured_memo = std::make_unique<sim::SolveMemo>(
        &solves_, memo_salt("measured", cq.tech, cq.model), cfg_.verify);
    job->predicted_memo = std::make_unique<sim::SolveMemo>(
        &solves_, memo_salt("predicted", cq.tech, cq.model), cfg_.verify);
    job->cq = std::move(cq);
    job->request_slots.push_back(i);
    planned.emplace(job->cq.fingerprint, jobs.size());
    jobs.push_back(std::move(job));
  }

  // Phase 2 — execute the distinct replays. The WarmStore is frozen for
  // the duration: replays read it through the const lookup and stage their
  // own solutions privately in their memos.
  util::parallel_for(cfg_.threads, static_cast<int>(jobs.size()), [&](int j) {
    Job& job = *jobs[static_cast<size_t>(j)];
    const CanonicalQuery& cq = job.cq;
    // A scheme workload here would run compare_scheme's static comparison
    // instead of a replay.
    BWS_ASSERT(cq.workload.is_trace(),
               "serve: a job reached its replay unlifted");
    eval::CellJob cell_job;
    cell_job.workload = &cq.workload;
    cell_job.tech = cq.tech;
    cell_job.model = cq.model;
    cell_job.shape = {cq.nodes, cq.cores};
    cell_job.policy = cq.policy;
    cell_job.churn = cq.churn;
    cell_job.background = cq.background;
    cell_job.seed = cq.seed;
    eval::CellHooks hooks;
    hooks.measured_memo = job.measured_memo.get();
    hooks.predicted_memo = job.predicted_memo.get();
    eval::CellOutcome out = eval::run_cell_detailed(cell_job, hooks);
    job.warm = job.measured_memo->frozen_hits() +
                   job.predicted_memo->frozen_hits() >
               0;
    if (cfg_.verify && out.cell.ok && job.warm) {
      // Service-level oracle: a warm replay must equal a fully cold one
      // bitwise. (The per-hit oracle inside SolveMemo already re-solved
      // every individual hit; this closes the loop end to end.)
      const eval::CellOutcome cold = eval::run_cell_detailed(cell_job);
      BWS_CHECK(cold.cell.ok,
                strformat("serve verify: cold re-run failed: %s",
                          cold.cell.error.c_str()));
      BWS_CHECK(sim::bit_identical(*out.measured, *cold.measured),
                "serve verify: warm-started measured replay diverged from "
                "a cold run");
      BWS_CHECK(sim::bit_identical(*out.predicted, *cold.predicted),
                "serve verify: warm-started predicted replay diverged from "
                "a cold run");
    }
    auto result = std::make_shared<QueryResult>();
    result->cell = std::move(out.cell);
    result->placement = std::move(out.placement);
    result->measured = std::move(out.measured);
    result->predicted = std::move(out.predicted);
    result->fingerprint = cq.fingerprint;
    if (result->cell.ok && !has_task_level_signal(*result->measured)) {
      result->cell.eabs_pct =
          comm_level_eabs(*result->measured, *result->predicted);
    }
    if (result->cell.ok) {
      result->result_hash = util::hash_words(
          {hash_sim_result(*result->measured),
           hash_sim_result(*result->predicted)});
    }
    job.result = std::move(result);
  });

  // Phase 3 — commit, sequentially in job-creation order (== first-request
  // order), so cache contents and counters are independent of thread
  // scheduling.
  for (const auto& job_ptr : jobs) {
    const Job& job = *job_ptr;
    ++stats_.replays;
    if (job.warm) ++stats_.warm_replays;
    stats_.solve_hits += job.measured_memo->frozen_hits() +
                         job.predicted_memo->frozen_hits();
    stats_.solve_misses +=
        job.measured_memo->misses() + job.predicted_memo->misses();
    const bool ok = job.result->cell.ok;
    if (ok) {
      solves_.commit(job.measured_memo->staged());
      solves_.commit(job.predicted_memo->staged());
      // Failed replays are deliberately not cached: a retry re-executes.
      results_.insert(job.cq.fingerprint, job.result);
    }
    for (size_t k = 0; k < job.request_slots.size(); ++k) {
      Response& r = responses[job.request_slots[k]];
      r.ok = ok;
      if (ok) {
        if (k == 0) r.source = job.warm ? Source::kWarm : Source::kCold;
        // Followers keep the kCoalesced tag set during planning.
        r.result = job.result;
      } else {
        r.source = Source::kError;
        r.error = job.result->cell.error;
        ++stats_.errors;
      }
    }
  }
  return responses;
}

ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats s = stats_;
  s.result_evictions = results_.evictions();
  s.solve_evictions = solves_.evictions();
  s.cached_results = results_.size();
  s.stored_solutions = solves_.size();
  return s;
}

}  // namespace bwshare::serve
