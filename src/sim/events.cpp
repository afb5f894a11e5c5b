#include "sim/events.hpp"

#include <map>

#include "util/error.hpp"
#include "util/limits.hpp"
#include "util/strings.hpp"

namespace bwshare::sim {

Event Event::compute(double seconds) {
  BWS_CHECK(seconds >= 0.0, "compute duration must be non-negative");
  Event e;
  e.kind = EventKind::kCompute;
  e.value_ = seconds;
  return e;
}

Event Event::send(TaskId to, double bytes) {
  BWS_CHECK(to >= 0, "send target must be a task id");
  BWS_CHECK(bytes >= 0.0, "message size must be non-negative");
  Event e;
  e.kind = EventKind::kSend;
  e.peer = to;
  e.value_ = bytes;
  return e;
}

Event Event::recv(TaskId from, double bytes) {
  BWS_CHECK(from >= 0 || from == kAnySource, "bad receive source");
  BWS_CHECK(bytes >= 0.0, "message size must be non-negative");
  Event e;
  e.kind = EventKind::kRecv;
  e.peer = from;
  e.value_ = bytes;
  return e;
}

Event Event::recv_any(double bytes) { return recv(kAnySource, bytes); }

Event Event::isend(TaskId to, double bytes) {
  Event e = send(to, bytes);
  e.kind = EventKind::kIsend;
  return e;
}

Event Event::irecv(TaskId from, double bytes) {
  Event e = recv(from, bytes);
  e.kind = EventKind::kIrecv;
  return e;
}

Event Event::wait_all() {
  Event e;
  e.kind = EventKind::kWaitAll;
  return e;
}

Event Event::barrier() {
  Event e;
  e.kind = EventKind::kBarrier;
  return e;
}

AppTrace::AppTrace(int num_tasks) {
  BWS_CHECK(num_tasks >= 1, "trace needs at least one task");
  BWS_CHECK(num_tasks <= kMaxCount,
            strformat("trace: %d tasks exceeds the limit of %d", num_tasks,
                      kMaxCount));
  programs_.resize(static_cast<size_t>(num_tasks));
}

void AppTrace::push(TaskId t, Event e) {
  BWS_CHECK(t >= 0 && t < num_tasks(),
            strformat("task %d out of range [0,%d)", t, num_tasks()));
  programs_[static_cast<size_t>(t)].push_back(e);
  if (e.kind == EventKind::kSend || e.kind == EventKind::kIsend) ++sends_;
}

void AppTrace::push_barrier_all() {
  for (auto& p : programs_) p.push_back(Event::barrier());
}

double AppTrace::total_bytes_sent() const {
  double total = 0.0;
  for (const auto& p : programs_)
    for (const auto& e : p)
      if (e.kind == EventKind::kSend || e.kind == EventKind::kIsend)
        total += e.bytes();
  return total;
}

size_t AppTrace::total_events() const {
  size_t total = 0;
  for (const auto& p : programs_) total += p.size();
  return total;
}

void AppTrace::validate() const {
  // Sends to each destination must be covered by that destination's
  // receives (counting any-source receives as wildcards), and vice versa.
  std::map<TaskId, size_t> sends_to;     // dst -> count
  std::map<TaskId, size_t> recvs_at;     // dst -> count (incl. wildcards)
  size_t barriers_first = program(0).size() + 1;  // sentinel
  for (TaskId t = 0; t < num_tasks(); ++t) {
    size_t barriers = 0;
    for (const auto& e : program(t)) {
      switch (e.kind) {
        case EventKind::kSend:
        case EventKind::kIsend:
          BWS_CHECK(e.peer < num_tasks(),
                    strformat("task %d sends to unknown task %d", t, e.peer));
          BWS_CHECK(e.peer != t, strformat("task %d sends to itself", t));
          ++sends_to[e.peer];
          break;
        case EventKind::kRecv:
        case EventKind::kIrecv:
          BWS_CHECK(e.peer == kAnySource || e.peer < num_tasks(),
                    strformat("task %d receives from unknown task %d", t,
                              e.peer));
          ++recvs_at[t];
          break;
        case EventKind::kBarrier:
          ++barriers;
          break;
        case EventKind::kCompute:
        case EventKind::kWaitAll:
          break;
      }
    }
    if (t == 0)
      barriers_first = barriers;
    else
      BWS_CHECK(barriers == barriers_first,
                strformat("task %d has %zu barriers, task 0 has %zu", t,
                          barriers, barriers_first));
  }
  for (const auto& [dst, n] : sends_to)
    BWS_CHECK(recvs_at[dst] == n,
              strformat("task %d is sent %zu messages but posts %zu receives",
                        dst, n, recvs_at[dst]));
  for (const auto& [dst, n] : recvs_at)
    BWS_CHECK(sends_to[dst] == n,
              strformat("task %d posts %zu receives but is sent %zu messages",
                        dst, n, sends_to[dst]));
}

AppTrace trace_from_scheme(const graph::CommGraph& scheme) {
  AppTrace trace(scheme.num_nodes());
  for (graph::CommId i = 0; i < scheme.size(); ++i) {
    const auto& c = scheme.comm(i);
    trace.push(c.dst, Event::irecv(c.src, c.bytes));
  }
  for (graph::CommId i = 0; i < scheme.size(); ++i) {
    const auto& c = scheme.comm(i);
    trace.push(c.src, Event::isend(c.dst, c.bytes));
  }
  for (TaskId t = 0; t < trace.num_tasks(); ++t)
    trace.push(t, Event::wait_all());
  return trace;
}

}  // namespace bwshare::sim
