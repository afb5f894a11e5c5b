#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>

#include "core/clock.hpp"
#include "core/event_queue.hpp"
#include "sim/solve_memo.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/strings.hpp"

namespace bwshare::sim {

double SimResult::average_penalty() const {
  double total = 0.0;
  size_t count = 0;
  for (const auto& c : comms) {
    if (c.background || c.aborted) continue;  // not the measured job's story
    total += c.penalty;
    ++count;
  }
  if (count == 0) return 1.0;
  return total / static_cast<double>(count);
}

double SimResult::task_comm_time(TaskId t) const {
  BWS_CHECK(t >= 0 && t < static_cast<TaskId>(tasks.size()),
            "task out of range");
  return tasks[static_cast<size_t>(t)].send_blocked_seconds;
}

bool bit_identical(const SimResult& a, const SimResult& b) {
  if (a.makespan != b.makespan) return false;
  if (a.aborted_comms != b.aborted_comms) return false;
  if (a.background_comms != b.background_comms) return false;
  if (a.background_skipped != b.background_skipped) return false;
  if (a.comms.size() != b.comms.size()) return false;
  for (size_t i = 0; i < a.comms.size(); ++i) {
    const CommRecord& x = a.comms[i];
    const CommRecord& y = b.comms[i];
    if (x.src_task != y.src_task || x.dst_task != y.dst_task ||
        x.src_node != y.src_node || x.dst_node != y.dst_node ||
        x.bytes != y.bytes || x.send_post != y.send_post ||
        x.recv_post != y.recv_post || x.start != y.start ||
        x.finish != y.finish || x.penalty != y.penalty ||
        x.sender_time != y.sender_time || x.background != y.background ||
        x.aborted != y.aborted) {
      return false;
    }
  }
  if (a.tasks.size() != b.tasks.size()) return false;
  for (size_t t = 0; t < a.tasks.size(); ++t) {
    const TaskStats& x = a.tasks[t];
    const TaskStats& y = b.tasks[t];
    if (x.finish_time != y.finish_time ||
        x.compute_seconds != y.compute_seconds ||
        x.send_blocked_seconds != y.send_blocked_seconds ||
        x.recv_blocked_seconds != y.recv_blocked_seconds ||
        x.barrier_wait_seconds != y.barrier_wait_seconds ||
        x.sends != y.sends || x.recvs != y.recvs) {
      return false;
    }
  }
  return true;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// End of a node's transfer list (Transfer::next_src / next_dst).
constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();
/// Messages at least this long use rendezvous (the sender blocks).
constexpr double kEagerThreshold = 64.0 * 1024.0;
/// Abort if simulated time exceeds this (deadlock safety net).
constexpr double kMaxTime = 1e9;

enum class TaskState { kReady, kComputing, kSendBlocked, kRecvBlocked,
                       kWaitAll, kBarrier, kDone };

struct PendingSend {
  TaskId src = 0;
  double bytes = 0.0;
  double post_time = 0.0;
  bool rendezvous = false;
  bool tracked = false;  // posted via kIsend; completes a WaitAll request
  size_t record = 0;     // index into result.comms
};

struct PendingRecv {
  TaskId peer = kAnySource;
  double post_time = 0.0;
  bool nonblocking = false;  // posted via kIrecv
};

/// One in-flight transfer, stored in a stable slot. `remaining` is only
/// valid as of `advance_time` — bytes are integrated lazily, when the
/// transfer's component is next solved (docs/PERFORMANCE.md).
///
/// Deliberately trivially copyable: slots are recycled with a plain
/// assignment and completion snapshots the struct by value, so any owning
/// member here would put an allocation on the per-event path.
struct Transfer {
  size_t record = 0;
  TaskId src = 0;
  TaskId dst = 0;
  topo::NodeId src_node = 0;
  topo::NodeId dst_node = 0;
  double remaining = 0.0;     // bytes left, as of advance_time
  double advance_time = 0.0;  // sim time `remaining` refers to
  double rate = 0.0;
  double finish_pred = kInf;  // advance_time + remaining / rate
  bool rendezvous = false;
  bool src_tracked = false;      // sender posted via kIsend
  bool dst_nonblocking = false;  // receiver posted via kIrecv
  bool background = false;       // task-less injected flow; src/dst unused
  bool alive = false;
  /// Next alive transfer in src_node's / dst_node's list (NodeIndex). A
  /// transfer with src_node == dst_node is listed once, through next_src.
  size_t next_src = kNoSlot;
  size_t next_dst = kNoSlot;
  uint64_t seen = 0;  // last flush whose component search reached this slot
  /// Entry in the finish-time queue: the transfer's first solve pushes it,
  /// every later solve re-keys it, and completion or abort erases it. Null
  /// until that first solve, which the flush after the opening event runs.
  core::EventHandle qh = core::kNullEventHandle;
};
static_assert(std::is_trivially_copyable_v<Transfer>,
              "Transfer is snapshotted by value on the hot path");

/// Per-thread solve scratch: the component's induced communication graph
/// plus the memo path's rate buffers. One instance per thread, because
/// sweep cells and served queries run engines concurrently; the graph and
/// vectors keep their capacity across solves.
struct SolveScratch {
  graph::CommGraph sub;
  std::vector<double> memo_rates;
  std::vector<double> memo_verify;
};

SolveScratch& solve_scratch() {
  thread_local SolveScratch scratch;
  return scratch;
}

/// The alive transfers with an endpoint on one node, as a list threaded
/// through Transfer::next_src / next_dst (no per-node heap storage), and the
/// last flush whose component search reached the node.
struct NodeIndex {
  size_t head = kNoSlot;
  uint64_t seen = 0;
};

/// One scripted scenario event, merged from Scenario::churn and
/// Scenario::background in declaration order. Replayed off a dedicated
/// core::EventQueue keyed by (time, script index).
struct ScriptEvent {
  enum class Kind { kJoin, kLeave, kFail, kFlow };
  Kind kind = Kind::kFlow;
  double time = 0.0;
  int node = 0;        // membership events
  int src = 0;         // kFlow
  int dst = 0;         // kFlow
  double bytes = 0.0;  // kFlow
};

class Engine {
 public:
  Engine(const AppTrace& trace, const topo::ClusterSpec& cluster,
         const Placement& placement, const flowsim::RateProvider& provider,
         const Scenario& scenario, const EngineConfig& config)
      : trace_(trace),
        cluster_(cluster),
        placement_(placement),
        provider_(provider),
        cfg_(config) {
    BWS_CHECK(placement_.num_tasks() == trace_.num_tasks(),
              "placement task count must match the trace");
    for (int t = 0; t < trace_.num_tasks(); ++t)
      BWS_CHECK(placement_.node_of(t) < cluster_.num_nodes(),
                "placement references a node outside the cluster");
    const int n = trace_.num_tasks();
    state_.assign(static_cast<size_t>(n), TaskState::kReady);
    pc_.assign(static_cast<size_t>(n), 0);
    ready_at_.assign(static_cast<size_t>(n), 0.0);
    blocked_since_.assign(static_cast<size_t>(n), 0.0);
    result_.tasks.assign(static_cast<size_t>(n), TaskStats{});
    pending_sends_.resize(static_cast<size_t>(n));
    pending_recvs_.resize(static_cast<size_t>(n));
    // A first unmatched post would otherwise buy each queue's capacity-1
    // buffer mid-replay — a first-touch allocation tail that trickles on for
    // as long as fresh (task, direction) pairs keep appearing. Paying all of
    // them here keeps the steady-state loop allocation-free.
    for (auto& q : pending_sends_) q.reserve(1);
    for (auto& q : pending_recvs_) q.reserve(1);
    outstanding_requests_.assign(static_cast<size_t>(n), 0);
    // One record per send is known up front; background flows may push a few
    // more, but reserving the floor keeps the replay free of the geometric
    // regrowth memcpy over what is by far the engine's largest result array.
    result_.comms.reserve(trace_.total_sends());

    nodes_.assign(static_cast<size_t>(cluster_.num_nodes()), NodeIndex{});
    node_up_.assign(static_cast<size_t>(cluster_.num_nodes()), true);
    job_of_ = scenario.job_of;
    if (job_of_.empty()) job_of_.assign(static_cast<size_t>(n), 0);
    int num_jobs = 1;
    for (const int j : job_of_) num_jobs = std::max(num_jobs, j + 1);
    job_size_.assign(static_cast<size_t>(num_jobs), 0);
    for (const int j : job_of_) ++job_size_[static_cast<size_t>(j)];
    job_barrier_arrivals_.assign(static_cast<size_t>(num_jobs), 0);

    // Merge the scenario scripts into one queue; churn events precede
    // background flows at equal times (seq order below).
    script_.reserve(scenario.churn.size() + scenario.background.size());
    for (const auto& ev : scenario.churn) {
      ScriptEvent se;
      se.kind = ev.kind == graph::ChurnKind::kJoin ? ScriptEvent::Kind::kJoin
                : ev.kind == graph::ChurnKind::kLeave
                    ? ScriptEvent::Kind::kLeave
                    : ScriptEvent::Kind::kFail;
      se.time = ev.time;
      se.node = ev.node;
      script_.push_back(se);
    }
    for (const auto& f : scenario.background) {
      ScriptEvent se;
      se.kind = ScriptEvent::Kind::kFlow;
      se.time = f.time;
      se.src = f.src;
      se.dst = f.dst;
      se.bytes = f.bytes;
      script_.push_back(se);
    }
    for (size_t i = 0; i < script_.size(); ++i)
      script_q_.push(script_[i].time, static_cast<uint64_t>(i), i);
  }

  SimResult run() {
    // Drive every task as far as it can go, then hop to the next event.
    for (TaskId t = 0; t < trace_.num_tasks(); ++t) advance_task(t);
    while (num_done_ < trace_.num_tasks()) {
      // Flush point: solve every component the last event cascade touched,
      // before any prediction below is read. The clock has not moved since
      // they were touched, so deferring the solves to here is unobservable.
      flush();
      const auto next_of = [](const auto& q) {
        return q.empty() ? kInf : q.top_time();
      };
      const double next_compute = next_of(compute_q_);
      const double next_transfer = next_of(transfer_q_);
      const double next_script = next_of(script_q_);
      if (cfg_.verify) {
        // Queue-order oracle: the heaps' next-event times must match linear
        // scans over every task and transfer exactly, at every event.
        BWS_CHECK(earliest_compute_end() == next_compute,
                  strformat("event queue diverged from scan on the next "
                            "compute wake-up: heap %.17g vs scan %.17g at "
                            "t=%.9g",
                            next_compute, earliest_compute_end(), now()));
        BWS_CHECK(earliest_transfer_end() == next_transfer,
                  strformat("event queue diverged from scan on the next "
                            "completion: heap %.17g vs scan %.17g at t=%.9g",
                            next_transfer, earliest_transfer_end(), now()));
      }
      const double next = std::min({next_compute, next_transfer, next_script});
      BWS_CHECK(next < kInf, deadlock_message());
      BWS_CHECK(next <= kMaxTime, "simulation exceeded the 1e9 s time limit");
      clock_.advance_to(next);
      // Script events fire first at equal times: a failure at t aborts
      // transfers before a same-t completion is chosen.
      if (next_script <= next) {
        process_script_event();
      } else if (next_transfer <= next_compute) {
        complete_one_transfer();
      } else {
        wake_computers();
      }
    }
    result_.makespan = now();
    for (TaskId t = 0; t < trace_.num_tasks(); ++t)
      result_.tasks[static_cast<size_t>(t)].finish_time =
          std::max(result_.tasks[static_cast<size_t>(t)].finish_time, 0.0);
    return std::move(result_);
  }

 private:
  [[nodiscard]] double now() const { return clock_.now(); }

  // --- task stepping -------------------------------------------------------

  /// Put `t` to sleep until `until` (a compute burst, or modelled receive
  /// latency): the state bookkeeping plus the wake-up queue entry. A
  /// computing task owns exactly one compute_q_ entry, popped when it
  /// wakes — nothing ever re-keys it.
  void begin_compute(TaskId t, double until) {
    state_[static_cast<size_t>(t)] = TaskState::kComputing;
    ready_at_[static_cast<size_t>(t)] = until;
    compute_q_.push(until, static_cast<uint64_t>(t), t);
  }

  void advance_task(TaskId t) {
    auto& st = state_[static_cast<size_t>(t)];
    while (st == TaskState::kReady) {
      const auto& program = trace_.program(t);
      if (pc_[static_cast<size_t>(t)] >= program.size()) {
        st = TaskState::kDone;
        ++num_done_;
        result_.tasks[static_cast<size_t>(t)].finish_time = now();
        return;
      }
      const Event& e = program[pc_[static_cast<size_t>(t)]++];
      switch (e.kind) {
        case EventKind::kCompute:
          begin_compute(t, now() + e.seconds());
          result_.tasks[static_cast<size_t>(t)].compute_seconds += e.seconds();
          return;
        case EventKind::kSend:
          post_send(t, e, /*nonblocking=*/false);
          return;  // state set inside (may stay kReady for eager)
        case EventKind::kIsend:
          post_send(t, e, /*nonblocking=*/true);
          // The send may have completed the task's program synchronously
          // (eager path advances); stop if the state moved on.
          if (st != TaskState::kReady) return;
          break;
        case EventKind::kRecv:
          post_recv(t, e, /*nonblocking=*/false);
          return;
        case EventKind::kIrecv:
          post_recv(t, e, /*nonblocking=*/true);
          break;  // task stays ready; loop continues
        case EventKind::kWaitAll:
          if (outstanding_requests_[static_cast<size_t>(t)] > 0) {
            st = TaskState::kWaitAll;
            blocked_since_[static_cast<size_t>(t)] = now();
            return;
          }
          break;  // nothing outstanding: fall through to the next event
        case EventKind::kBarrier:
          arrive_barrier(t);
          return;
      }
    }
  }

  void post_send(TaskId t, const Event& e, bool nonblocking) {
    auto& stats = result_.tasks[static_cast<size_t>(t)];
    ++stats.sends;
    const bool rendezvous = !nonblocking && e.bytes() >= kEagerThreshold;

    CommRecord rec;
    rec.src_task = t;
    rec.dst_task = e.peer;
    rec.src_node = placement_.node_of(t);
    rec.dst_node = placement_.node_of(e.peer);
    rec.bytes = e.bytes();
    rec.send_post = now();
    result_.comms.push_back(rec);
    const size_t record = result_.comms.size() - 1;

    PendingSend ps;
    ps.src = t;
    ps.bytes = e.bytes();
    ps.post_time = now();
    ps.rendezvous = rendezvous;
    ps.tracked = nonblocking;
    ps.record = record;

    if (rendezvous) {
      state_[static_cast<size_t>(t)] = TaskState::kSendBlocked;
      blocked_since_[static_cast<size_t>(t)] = now();
    } else {
      state_[static_cast<size_t>(t)] = TaskState::kReady;
      if (nonblocking) ++outstanding_requests_[static_cast<size_t>(t)];
    }

    // Try to match an already-posted receive at the destination.
    auto& recvs = pending_recvs_[static_cast<size_t>(e.peer)];
    for (auto it = recvs.begin(); it != recvs.end(); ++it) {
      if (it->peer == kAnySource || it->peer == t) {
        result_.comms[record].recv_post = it->post_time;
        const bool dst_nonblocking = it->nonblocking;
        recvs.erase(it);
        start_transfer(ps, e.peer, dst_nonblocking);
        if (!rendezvous && !nonblocking) advance_task(t);
        return;
      }
    }
    pending_sends_[static_cast<size_t>(e.peer)].push_back(ps);
    if (!rendezvous && !nonblocking) advance_task(t);
  }

  void post_recv(TaskId t, const Event& e, bool nonblocking) {
    auto& stats = result_.tasks[static_cast<size_t>(t)];
    ++stats.recvs;
    if (nonblocking) {
      ++outstanding_requests_[static_cast<size_t>(t)];
    } else {
      state_[static_cast<size_t>(t)] = TaskState::kRecvBlocked;
      blocked_since_[static_cast<size_t>(t)] = now();
    }

    // Match the earliest pending send addressed to us. The queue is in
    // posting order: sends are only appended, and an erase keeps the order.
    auto& sends = pending_sends_[static_cast<size_t>(t)];
    const auto match =
        std::find_if(sends.begin(), sends.end(), [&](const PendingSend& ps) {
          return e.peer == kAnySource || ps.src == e.peer;
        });
    if (match != sends.end()) {
      PendingSend ps = *match;
      sends.erase(match);
      result_.comms[ps.record].recv_post = now();
      start_transfer(ps, t, nonblocking);
      return;
    }
    PendingRecv pr;
    pr.peer = e.peer;
    pr.post_time = now();
    pr.nonblocking = nonblocking;
    pending_recvs_[static_cast<size_t>(t)].push_back(pr);
  }

  void arrive_barrier(TaskId t) {
    state_[static_cast<size_t>(t)] = TaskState::kBarrier;
    blocked_since_[static_cast<size_t>(t)] = now();
    // Barriers synchronize within a job: co-scheduled jobs never wait on
    // each other's barriers (with a single job this is the global barrier).
    const int job = job_of_[static_cast<size_t>(t)];
    ++job_barrier_arrivals_[static_cast<size_t>(job)];
    if (job_barrier_arrivals_[static_cast<size_t>(job)] <
        job_size_[static_cast<size_t>(job)])
      return;
    // The whole job arrived: release it. In-flight transfers are untouched —
    // their byte counts advance lazily when their component is next
    // refreshed.
    job_barrier_arrivals_[static_cast<size_t>(job)] = 0;
    for (TaskId u = 0; u < trace_.num_tasks(); ++u) {
      if (job_of_[static_cast<size_t>(u)] != job) continue;
      if (state_[static_cast<size_t>(u)] != TaskState::kBarrier) continue;
      result_.tasks[static_cast<size_t>(u)].barrier_wait_seconds +=
          now() - blocked_since_[static_cast<size_t>(u)];
      state_[static_cast<size_t>(u)] = TaskState::kReady;
    }
    for (TaskId u = 0; u < trace_.num_tasks(); ++u)
      if (state_[static_cast<size_t>(u)] == TaskState::kReady) advance_task(u);
  }

  // --- transfers -----------------------------------------------------------

  /// Integrate the bytes `tr` moved since its last advance. Clamped at zero:
  /// at a predicted finish, rounding can leave `rate * elapsed` a hair above
  /// the remaining bytes.
  void advance(Transfer& tr) {
    if (now() > tr.advance_time && tr.rate > 0.0)
      tr.remaining =
          std::max(0.0, tr.remaining - tr.rate * (now() - tr.advance_time));
    tr.advance_time = now();
  }

  /// Put a fresh transfer of `bytes` for comm `record` into the active set:
  /// a recycled or new slot and the node index. Its finish-time queue entry
  /// waits for its first solve, at the next flush: until then it has no
  /// prediction, and nothing reads or detaches it (a completion pops only
  /// queued entries, and a failure runs after the flush). The caller fills
  /// in the task-side fields.
  Transfer& open_transfer(size_t record, topo::NodeId src_node,
                          topo::NodeId dst_node, double bytes) {
    size_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      transfers_.emplace_back();
      slot = transfers_.size() - 1;
    }
    Transfer& tr = transfers_[slot];
    tr = Transfer{};
    tr.record = record;
    tr.src_node = src_node;
    tr.dst_node = dst_node;
    tr.remaining = std::max(bytes, 1.0);  // 0-length still costs latency
    tr.advance_time = now();
    tr.alive = true;
    ++num_active_;
    attach_transfer(slot);
    return tr;
  }

  void start_transfer(const PendingSend& ps, TaskId dst,
                      bool dst_nonblocking) {
    Transfer& tr = open_transfer(ps.record, placement_.node_of(ps.src),
                                 placement_.node_of(dst), ps.bytes);
    tr.src = ps.src;
    tr.dst = dst;
    tr.rendezvous = ps.rendezvous;
    tr.src_tracked = ps.tracked;
    tr.dst_nonblocking = dst_nonblocking;
    result_.comms[ps.record].start = now();
  }

  // --- scenario scripts ----------------------------------------------------

  /// Pop and apply the next scripted event. One event per main-loop turn, so
  /// a flush runs between same-time script events.
  void process_script_event() {
    BWS_ASSERT(!script_q_.empty(), "no script event pending");
    const size_t idx = script_q_.top();
    script_q_.pop();
    const ScriptEvent& ev = script_[idx];
    switch (ev.kind) {
      case ScriptEvent::Kind::kJoin:
        node_up_[static_cast<size_t>(ev.node)] = true;
        break;
      case ScriptEvent::Kind::kLeave:
        // Graceful departure: stop admitting background flows, but let the
        // node's in-flight transfers drain.
        node_up_[static_cast<size_t>(ev.node)] = false;
        break;
      case ScriptEvent::Kind::kFail:
        node_up_[static_cast<size_t>(ev.node)] = false;
        fail_node(ev.node);
        break;
      case ScriptEvent::Kind::kFlow:
        inject_background(ev);
        break;
    }
  }

  /// Crash semantics: every in-flight transfer with an endpoint on the
  /// failed node aborts at the event time, in posting (record) order, so
  /// the cascade is deterministic.
  void fail_node(int node) {
    aborting_.clear();
    for (size_t s = nodes_[static_cast<size_t>(node)].head; s != kNoSlot;
         s = next_at(s, node))
      aborting_.push_back(s);
    std::sort(aborting_.begin(), aborting_.end(), [&](size_t a, size_t b) {
      return transfers_[a].record < transfers_[b].record;
    });
    // abort_transfer can cascade into new transfers (an unblocked task may
    // post its next send), but new slots are never aborted: the snapshot
    // above fixes the victim set at the failure instant.
    for (const size_t s : aborting_) abort_transfer(s);
  }

  /// Mirror of complete_one_transfer for a transfer cut short by a node
  /// failure: close the record as aborted at the failure instant and
  /// unblock both endpoints immediately (the failure is observed with no
  /// delivery latency). The transfer's component re-solves at the next
  /// flush.
  void abort_transfer(size_t slot) {
    advance(transfers_[slot]);
    const Transfer tr = transfers_[slot];
    detach_transfer(slot);
    result_.comms[tr.record].aborted = true;
    ++result_.aborted_comms;
    release_endpoints(tr, /*latency=*/0.0);
  }

  /// Admit one background flow: a task-less transfer that contends for its
  /// endpoint nodes like any other active-set member but blocks nobody.
  /// Flows touching a down node are dropped (counted, not queued).
  void inject_background(const ScriptEvent& ev) {
    if (!node_up_[static_cast<size_t>(ev.src)] ||
        !node_up_[static_cast<size_t>(ev.dst)]) {
      ++result_.background_skipped;
      return;
    }
    CommRecord rec;
    rec.src_task = kAnySource;  // -1: no task on either side
    rec.dst_task = kAnySource;
    rec.src_node = static_cast<topo::NodeId>(ev.src);
    rec.dst_node = static_cast<topo::NodeId>(ev.dst);
    rec.bytes = ev.bytes;
    rec.send_post = now();
    rec.recv_post = now();
    rec.start = now();
    rec.background = true;
    result_.comms.push_back(rec);
    const size_t record = result_.comms.size() - 1;
    ++result_.background_comms;
    open_transfer(record, rec.src_node, rec.dst_node, ev.bytes).background =
        true;
  }

  // --- component search ----------------------------------------------------
  //
  // Components are not kept between flushes. The alive transfers are indexed
  // by endpoint node (nodes_); every start and departure records the nodes
  // it touched, and the flush collects each component reachable from them by
  // a search over that index. Two transfers share a component iff they share
  // an endpoint node (transitively).

  /// `slot`'s next link in `node`'s list.
  size_t& next_at(size_t slot, topo::NodeId node) {
    Transfer& tr = transfers_[slot];
    return tr.src_node == node ? tr.next_src : tr.next_dst;
  }

  void link(size_t slot, topo::NodeId node) {
    size_t& head = nodes_[static_cast<size_t>(node)].head;
    next_at(slot, node) = head;
    head = slot;
  }

  /// O(transfers on `node`): the lists are singly linked.
  void unlink(size_t slot, topo::NodeId node) {
    size_t* at = &nodes_[static_cast<size_t>(node)].head;
    while (*at != slot) at = &next_at(*at, node);
    *at = next_at(slot, node);
  }

  /// Record `slot`'s nodes for the next flush's search.
  void touch(size_t slot) {
    const Transfer& tr = transfers_[slot];
    touched_nodes_.push_back(tr.src_node);
    touched_nodes_.push_back(tr.dst_node);
  }

  /// Index a fresh transfer under its endpoint nodes.
  void attach_transfer(size_t slot) {
    const Transfer& tr = transfers_[slot];
    link(slot, tr.src_node);
    if (tr.dst_node != tr.src_node) link(slot, tr.dst_node);
    touch(slot);
  }

  /// Remove a finished transfer from the index and the finish-time queue.
  void detach_transfer(size_t slot) {
    Transfer& tr = transfers_[slot];
    unlink(slot, tr.src_node);
    if (tr.dst_node != tr.src_node) unlink(slot, tr.dst_node);
    touch(slot);
    transfer_q_.erase(tr.qh);
    tr.qh = core::kNullEventHandle;
    tr.alive = false;
    free_slots_.push_back(slot);
    --num_active_;
  }

  /// The one flush point, at the top of the event loop: solve everything
  /// touched since the last flush. Event handlers only record what they
  /// touched; the clock cannot move between touching and flushing, so
  /// deferral is unobservable, and a barrier release posting N transfers
  /// yields ONE flush over N disjoint components.
  void flush() {
    resolve_dirty();
    if (cfg_.verify) {
      cross_check();
      check_queue_keys();
    }
  }

  /// Solve each component holding an alive transfer on a touched node,
  /// once, in the order the touched list reaches them. That is exactly the
  /// set of components that gained or lost a member since the last flush (a
  /// departed transfer shared a node with every piece its old component
  /// split into). Solves read and write only their own members, so their
  /// order does not matter.
  void resolve_dirty() {
    ++flush_;
    for (const topo::NodeId v : touched_nodes_) {
      members_.clear();
      reach_node(v);
      solve_members();
    }
    touched_nodes_.clear();
  }

  void reach_node(topo::NodeId v) {
    NodeIndex& node = nodes_[static_cast<size_t>(v)];
    if (node.seen == flush_) return;
    node.seen = flush_;
    for (size_t s = node.head; s != kNoSlot; s = next_at(s, v)) reach_slot(s);
  }

  void reach_slot(size_t s) {
    if (transfers_[s].seen == flush_) return;
    transfers_[s].seen = flush_;
    members_.push_back(s);
  }

  /// Grow members_ to its component, then advance, solve and commit it.
  void solve_members() {
    for (size_t i = 0; i < members_.size(); ++i) {
      const size_t s = members_[i];
      reach_node(transfers_[s].src_node);
      reach_node(transfers_[s].dst_node);
    }
    if (members_.empty()) return;
    for (const size_t s : members_) advance(transfers_[s]);
    // Members in posting (record) order: the solve's flow ordering is then
    // a pure function of the component's content.
    std::sort(members_.begin(), members_.end(), [&](size_t a, size_t b) {
      return transfers_[a].record < transfers_[b].record;
    });
    rates_.resize(members_.size());
    compute_component_rates(members_, rates_);
    commit_component(members_, rates_);
  }

  /// Solve one component: build the induced communication graph of its
  /// members and hand it to the provider's full-graph entry point (a
  /// component is closed under shared endpoints, so solving it in isolation
  /// is exact).
  ///
  /// With EngineConfig::solve_memo set, the induced subproblem is first
  /// hashed — (salt, then per member: src node, dst node, remaining-bytes
  /// bit pattern), content only, never slots or labels — and looked up. A
  /// hit returns the memoized bits, which the RateProvider purity contract
  /// (flowsim/fluid_network.hpp) guarantees equal a fresh solve, so replays
  /// stay bit-identical whatever the memo contains; a verify-mode memo
  /// proves that on every hit by re-solving anyway. Misses solve fresh and
  /// stage the solution for cross-query publication (sim/solve_memo.hpp).
  void compute_component_rates(std::span<const size_t> members,
                               std::span<double> out) const {
    BWS_ASSERT(out.size() == members.size(), "rate size mismatch");
    SolveScratch& scratch = solve_scratch();
    const auto solve_fresh = [&](std::span<double> rates) {
      // The induced graph and the provider's solver state are both reused
      // per-thread scratch: the CommGraph keeps its capacity across solves
      // (unlabeled adds — the memo key and the provider ignore labels) and
      // the arena serves the max-min problem construction.
      graph::CommGraph& sub = scratch.sub;
      sub.clear();
      sub.reserve(static_cast<int>(members.size()));
      for (const size_t s : members) {
        const Transfer& tr = transfers_[s];
        sub.add(tr.src_node, tr.dst_node, tr.remaining);
      }
      provider_.rates_into(sub, util::Arena::thread_local_instance(), rates);
    };
    SolveMemo* const memo = cfg_.solve_memo;
    if (memo == nullptr) {
      solve_fresh(out);
      return;
    }
    util::StructuralHash h;
    h.mix_u64(memo->salt());
    for (const size_t s : members) {
      const Transfer& tr = transfers_[s];
      h.mix_i64(tr.src_node);
      h.mix_i64(tr.dst_node);
      h.mix_f64(tr.remaining);
    }
    const uint64_t key = h.digest();
    bool from_frozen = false;
    std::vector<double>& hit = scratch.memo_rates;
    if (memo->lookup(key, hit, from_frozen)) {
      BWS_CHECK(hit.size() == members.size(),
                "solve memo returned a rate vector of the wrong size "
                "(key collision or a mis-salted store)");
      if (memo->verify()) {
        std::vector<double>& fresh = scratch.memo_verify;
        fresh.resize(hit.size());
        solve_fresh(fresh);
        for (size_t k = 0; k < fresh.size(); ++k) {
          BWS_CHECK(hit[k] == fresh[k],
                    strformat("solve memo hit diverged from a fresh solve: "
                              "comm record %zu rate %.17g vs %.17g at t=%.9g",
                              transfers_[members[k]].record, hit[k], fresh[k],
                              now()));
        }
      }
      std::copy(hit.begin(), hit.end(), out.begin());
      return;
    }
    solve_fresh(out);
    hit.assign(out.begin(), out.end());
    memo->stage(key, hit);
  }

  /// Write one component's solved rates back into its transfers and key
  /// their finish-time queue entries: a push on a transfer's first solve, a
  /// re-key after that.
  void commit_component(std::span<const size_t> members,
                        std::span<const double> rates) {
    for (size_t k = 0; k < members.size(); ++k) {
      BWS_CHECK(rates[k] > 0.0, "provider returned a zero rate");
      Transfer& tr = transfers_[members[k]];
      tr.rate = rates[k];
      tr.finish_pred = tr.advance_time + tr.remaining / tr.rate;
      if (tr.qh == core::kNullEventHandle)
        tr.qh = transfer_q_.push(tr.finish_pred,
                                 static_cast<uint64_t>(tr.record), members[k]);
      else
        transfer_q_.update(tr.qh, tr.finish_pred);
    }
  }

  /// Alive transfer slots in posting (record) order (the verify oracle's
  /// whole-set problem).
  [[nodiscard]] std::vector<size_t> active_slots_by_record() const {
    std::vector<size_t> slots;
    slots.reserve(num_active_);
    for (size_t s = 0; s < transfers_.size(); ++s)
      if (transfers_[s].alive) slots.push_back(s);
    std::sort(slots.begin(), slots.end(), [&](size_t a, size_t b) {
      return transfers_[a].record < transfers_[b].record;
    });
    return slots;
  }

  [[nodiscard]] graph::CommGraph full_active_graph(
      const std::vector<size_t>& slots) const {
    graph::CommGraph active;
    for (const size_t s : slots) {
      const Transfer& tr = transfers_[s];
      active.add(tr.src_node, tr.dst_node, tr.remaining);
    }
    return active;
  }

  /// Verify oracle: after the incremental refresh, re-solve the whole active
  /// set as one unrestricted problem — genuinely different arithmetic from
  /// the per-component solves — and fail loudly if any cached component rate
  /// drifts beyond 1e-9 relative.
  void cross_check() const {
    if (num_active_ == 0) return;
    const auto slots = active_slots_by_record();
    const auto rates = provider_.rates(full_active_graph(slots));
    BWS_ASSERT(rates.size() == slots.size(), "rate size mismatch");
    for (size_t k = 0; k < slots.size(); ++k) {
      const double full = rates[k];
      const double inc = transfers_[slots[k]].rate;
      BWS_CHECK(std::abs(full - inc) <=
                    1e-9 * std::max(std::abs(full), std::abs(inc)),
                strformat("incremental refresh diverged from full solve: "
                          "comm record %zu rate %.17g vs %.17g at t=%.9g",
                          transfers_[slots[k]].record, inc, full, now()));
    }
  }

  /// Verify oracle: every alive transfer's queue key must equal its cached
  /// finish prediction — a commit that re-keyed the wrong entry (or forgot
  /// one) surfaces here instead of as a silent mis-ordering.
  void check_queue_keys() const {
    for (const auto& tr : transfers_) {
      if (!tr.alive) continue;
      BWS_CHECK(transfer_q_.time_of(tr.qh) == tr.finish_pred,
                strformat("finish-time queue key diverged from the cached "
                          "prediction: comm record %zu keyed %.17g vs "
                          "%.17g at t=%.9g",
                          tr.record, transfer_q_.time_of(tr.qh),
                          tr.finish_pred, now()));
    }
  }

  [[nodiscard]] double earliest_transfer_end() const {
    double best = kInf;
    for (const auto& tr : transfers_)
      if (tr.alive) best = std::min(best, tr.finish_pred);
    return best;
  }

  [[nodiscard]] double earliest_compute_end() const {
    double best = kInf;
    for (TaskId t = 0; t < trace_.num_tasks(); ++t)
      if (state_[static_cast<size_t>(t)] == TaskState::kComputing)
        best = std::min(best, ready_at_[static_cast<size_t>(t)]);
    return best;
  }

  /// Verify oracle: the completing transfer by linear argmin over every
  /// slot, with the finish-time queue's (finish_pred, record) order.
  [[nodiscard]] size_t scan_next_transfer() const {
    size_t done = transfers_.size();
    for (size_t s = 0; s < transfers_.size(); ++s) {
      const Transfer& tr = transfers_[s];
      if (!tr.alive) continue;
      if (done == transfers_.size() ||
          tr.finish_pred < transfers_[done].finish_pred ||
          (tr.finish_pred == transfers_[done].finish_pred &&
           tr.record < transfers_[done].record))
        done = s;
    }
    BWS_ASSERT(done < transfers_.size(), "no transfer completed");
    return done;
  }

  void complete_one_transfer() {
    // Finish the transfer with the earliest predicted completion; ties go to
    // the one posted first (lowest record). Only its own component needs its
    // bytes advanced.
    BWS_ASSERT(!transfer_q_.empty(), "no transfer completed");
    const size_t done = transfer_q_.top();
    if (cfg_.verify) {
      const size_t scan = scan_next_transfer();
      BWS_CHECK(scan == done,
                strformat("event queue diverged from scan on the completing "
                          "transfer: heap slot %zu (record %zu) vs scan "
                          "slot %zu (record %zu) at t=%.9g",
                          done, transfers_[done].record, scan,
                          transfers_[scan].record, now()));
    }
    advance(transfers_[done]);
    BWS_ASSERT(
        transfers_[done].remaining <=
            1e-6 + 1e-9 * result_.comms[transfers_[done].record].bytes,
        "completing a transfer with significant bytes left");

    const Transfer tr = transfers_[done];
    detach_transfer(done);
    release_endpoints(tr, latency_for(result_.comms[tr.record]));
  }

  /// Close the record of a departed transfer — finished `latency` after now,
  /// its penalty — and unblock its tasks: the sender (rendezvous) at once,
  /// the receiver `latency` later, modelled as a tiny compute burst so event
  /// ordering stays exact. A completion passes the one-way latency, an abort
  /// 0: `now() + 0.0 == now()`, and no compute burst is begun.
  void release_endpoints(const Transfer& tr, double latency) {
    auto& rec = result_.comms[tr.record];
    rec.finish = now() + latency;
    const double ref = reference_duration(rec);
    rec.penalty = ref > 0.0 ? (rec.finish - rec.start) / ref : 1.0;

    // A background flow blocks nobody.
    if (tr.background) return;

    if (tr.rendezvous) {
      auto& stats = result_.tasks[static_cast<size_t>(tr.src)];
      rec.sender_time = now() - rec.send_post;
      stats.send_blocked_seconds +=
          now() - blocked_since_[static_cast<size_t>(tr.src)];
      state_[static_cast<size_t>(tr.src)] = TaskState::kReady;
    } else {
      rec.sender_time = 0.0;
    }
    // Retire a tracked Isend; may release the sender's WaitAll.
    if (tr.src_tracked) retire_request(tr.src, /*latency=*/0.0);
    if (tr.dst_nonblocking) {
      // Non-blocking receive: retire the request; release a pending WaitAll
      // when it was the last one.
      retire_request(tr.dst, latency);
    } else {
      auto& stats = result_.tasks[static_cast<size_t>(tr.dst)];
      stats.recv_blocked_seconds +=
          (now() + latency) - blocked_since_[static_cast<size_t>(tr.dst)];
      if (latency > 0.0) {
        begin_compute(tr.dst, now() + latency);
      } else {
        state_[static_cast<size_t>(tr.dst)] = TaskState::kReady;
      }
    }

    if (state_[static_cast<size_t>(tr.src)] == TaskState::kReady)
      advance_task(tr.src);
    if (state_[static_cast<size_t>(tr.dst)] == TaskState::kReady)
      advance_task(tr.dst);
  }

  /// Retire one non-blocking request of `task`; if it was the last one and
  /// the task sits in WaitAll, release it (after `latency` for receives).
  void retire_request(TaskId task, double latency) {
    auto& outstanding = outstanding_requests_[static_cast<size_t>(task)];
    BWS_ASSERT(outstanding > 0, "request completion without a request");
    --outstanding;
    if (outstanding != 0 ||
        state_[static_cast<size_t>(task)] != TaskState::kWaitAll)
      return;
    auto& stats = result_.tasks[static_cast<size_t>(task)];
    stats.recv_blocked_seconds +=
        (now() + latency) - blocked_since_[static_cast<size_t>(task)];
    if (latency > 0.0) {
      begin_compute(task, now() + latency);
    } else {
      state_[static_cast<size_t>(task)] = TaskState::kReady;
    }
  }

  /// Wake eligible computing tasks in increasing task id, re-checking
  /// eligibility after every wake — a wake can cascade into a barrier
  /// release that advances the clock past more deadlines, or start
  /// zero-length computes. Tasks that become eligible *behind* the sweep
  /// position wait for the next main-loop turn: the sweep replicates one
  /// ascending-id pass over every task, which never revisits lower ids.
  void wake_computers() {
    // `eligible_` is reused scratch kept sorted by task id. Woken entries
    // are marked done rather than erased (an erase is a memmove, which made
    // a sweep over N same-time wake-ups quadratic); they all sit at or below
    // `last`, where upper_bound never looks, so they never wake twice.
    //
    // The drain window, now() + 1e-15, is absolute: it spans several ulps
    // of sim time below 8 s and exactly one ulp in [8, 16) s, so compute
    // ends that close wake in one sweep, in id order. From 16 s on an ulp
    // exceeds 1e-15, the sum rounds to now(), and only ends at now() are
    // drained. The sim.Engine.WakeSweep* tests pin both regimes.
    const auto drain = [&] {
      bool grew = false;
      while (!compute_q_.empty() &&
             compute_q_.top_time() <= now() + 1e-15) {
        eligible_.push_back({compute_q_.top_time(), compute_q_.top(), false});
        compute_q_.pop();
        grew = true;
      }
      if (grew)
        std::sort(eligible_.begin(), eligible_.end(),
                  [](const Wake& a, const Wake& b) { return a.task < b.task; });
    };
    eligible_.clear();
    drain();
    TaskId last = -1;
    for (;;) {
      const auto it = std::upper_bound(
          eligible_.begin(), eligible_.end(), last,
          [](TaskId id, const Wake& e) { return id < e.task; });
      const TaskId t = it == eligible_.end() ? trace_.num_tasks() : it->task;
      if (cfg_.verify) check_wake_order(last, t);
      if (it == eligible_.end()) break;
      it->done = true;
      last = t;
      state_[static_cast<size_t>(t)] = TaskState::kReady;
      advance_task(t);
      drain();
    }
    // Entries behind the sweep position are re-queued for the next
    // main-loop turn — the heap's pop order is key-determined, so the push
    // order is immaterial.
    for (const auto& e : eligible_)
      if (!e.done)
        compute_q_.push(e.when, static_cast<uint64_t>(e.task), e.task);
    eligible_.clear();
  }

  /// Verify oracle for the wake sweep: an ascending-id scan over every task
  /// would wake nothing strictly between `last` and `next` (the sweep's next
  /// wake, or the task count when the sweep ends).
  void check_wake_order(TaskId last, TaskId next) const {
    for (TaskId u = last + 1; u < next; ++u) {
      BWS_CHECK(state_[static_cast<size_t>(u)] != TaskState::kComputing ||
                    ready_at_[static_cast<size_t>(u)] > now() + 1e-15,
                strformat("wake sweep skipped eligible task %d (woke %d after "
                          "%d) at t=%.9g",
                          u, next, last, now()));
    }
  }

  // --- helpers -------------------------------------------------------------

  [[nodiscard]] double latency_for(const CommRecord& rec) const {
    return rec.src_node == rec.dst_node ? 0.0 : cluster_.network().latency;
  }

  [[nodiscard]] double reference_duration(const CommRecord& rec) const {
    const auto& net = cluster_.network();
    if (rec.src_node == rec.dst_node)
      return rec.bytes / net.shm_bandwidth;
    return net.latency + rec.bytes / net.reference_bandwidth();
  }

  [[nodiscard]] std::string deadlock_message() const {
    std::string msg = "simulation deadlock: ";
    for (TaskId t = 0; t < trace_.num_tasks(); ++t) {
      const char* s = "?";
      switch (state_[static_cast<size_t>(t)]) {
        case TaskState::kReady: s = "ready"; break;
        case TaskState::kComputing: s = "computing"; break;
        case TaskState::kSendBlocked: s = "send"; break;
        case TaskState::kRecvBlocked: s = "recv"; break;
        case TaskState::kWaitAll: s = "waitall"; break;
        case TaskState::kBarrier: s = "barrier"; break;
        case TaskState::kDone: s = "done"; break;
      }
      msg += strformat("task%d=%s ", t, s);
    }
    return msg;
  }

  const AppTrace& trace_;
  const topo::ClusterSpec& cluster_;
  const Placement& placement_;
  const flowsim::RateProvider& provider_;
  EngineConfig cfg_;

  core::Clock clock_;  // the shared event-core time source
  int num_done_ = 0;

  std::vector<TaskState> state_;
  std::vector<size_t> pc_;
  std::vector<double> ready_at_;
  std::vector<double> blocked_since_;
  // Match queues, keyed by dst task. Vectors, not deques: a deque heap-
  // allocates its node map on construction (2N of them would dominate engine
  // setup) and churns nodes on push/pop; these queues hold a handful of
  // entries, so an in-place erase is a short memmove and the capacity sticks.
  std::vector<std::vector<PendingSend>> pending_sends_;
  std::vector<std::vector<PendingRecv>> pending_recvs_;
  std::vector<int> outstanding_requests_;

  // Dynamic-cluster state (sim/scenario.hpp). node_up_ gates background-flow
  // admission; job_of_/job_size_/job_barrier_arrivals_ scope barriers to
  // their job; script_ replays off its own (time, script index) queue.
  std::vector<bool> node_up_;
  std::vector<int> job_of_;
  std::vector<int> job_size_;
  std::vector<int> job_barrier_arrivals_;
  std::vector<ScriptEvent> script_;
  core::EventQueue<size_t> script_q_;
  std::vector<size_t> aborting_;  // fail_node victim snapshot

  // The event-core indices: alive transfers keyed by predicted finish time
  // (tie: posting record), computing tasks keyed by wake-up time (tie: task
  // id).
  core::EventQueue<size_t> transfer_q_;
  core::EventQueue<TaskId> compute_q_;

  /// One drained compute_q_ entry awaiting its wake (wake_computers).
  struct Wake {
    double when;
    TaskId task;
    bool done;  // woken this sweep
  };
  std::vector<Wake> eligible_;  // wake sweep scratch, sorted by task id

  std::vector<Transfer> transfers_;  // slot-addressed; see Transfer::alive
  std::vector<size_t> free_slots_;
  size_t num_active_ = 0;
  // The component search's index and scratch (see "component search").
  // nodes_ is sized to the cluster up front. `seen` marks hold flush_,
  // bumped once per flush, so they never need clearing.
  std::vector<NodeIndex> nodes_;
  std::vector<topo::NodeId> touched_nodes_;  // since the last flush
  uint64_t flush_ = 0;
  std::vector<size_t> members_;  // the component being solved
  std::vector<double> rates_;    // its solved rates
  SimResult result_;
};

}  // namespace

SimResult run_simulation(const AppTrace& trace,
                         const topo::ClusterSpec& cluster,
                         const Placement& placement,
                         const flowsim::RateProvider& provider,
                         const EngineConfig& config) {
  return run_simulation(trace, cluster, placement, provider, Scenario{},
                        config);
}

SimResult run_simulation(const AppTrace& trace,
                         const topo::ClusterSpec& cluster,
                         const Placement& placement,
                         const flowsim::RateProvider& provider,
                         const Scenario& scenario,
                         const EngineConfig& config) {
  BWS_CHECK(trace.num_tasks() >= 1, "trace needs at least one task");
  scenario.validate(trace.num_tasks(), cluster.num_nodes());
  Engine engine(trace, cluster, placement, provider, scenario, config);
  return engine.run();
}

}  // namespace bwshare::sim
