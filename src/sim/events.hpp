// Application traces (paper §VI-A): "one or more applications represented by
// a sequence of events. There are two kind of events: compute events and
// communication events."
//
// We add an explicit Barrier event because the paper's measurement method
// (§IV-B) synchronizes tasks with MPI barriers between iterations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/comm_graph.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace bwshare::sim {

using TaskId = int;

/// Matches any sender (the paper's MPI_ANY_SOURCE receive).
inline constexpr TaskId kAnySource = -1;

enum class EventKind : std::uint8_t {
  kCompute,
  kSend,     // blocking MPI_Send
  kRecv,     // blocking MPI_Recv
  kIsend,    // non-blocking MPI_Isend: posts the send, task continues
  kIrecv,    // non-blocking MPI_Irecv: posts the receive, task continues
  kWaitAll,  // MPI_Waitall on every outstanding Isend/Irecv of this task
  kBarrier,
};

/// One trace event in 16 bytes: a replay streams every task's program
/// through the cache, so the kind, the peer and one value share two words.
/// The value is a compute event's duration or a message's length, and
/// seconds() and bytes() read it under those names. Neither checks the
/// kind: read seconds() of kCompute only and bytes() of the four message
/// kinds only. kWaitAll and kBarrier hold 0.
struct Event {
  EventKind kind = EventKind::kCompute;
  /// kSend/kRecv (and their non-blocking forms): peer task (kAnySource
  /// allowed for receives only).
  TaskId peer = 0;

  /// kCompute: duration in seconds.
  [[nodiscard]] double seconds() const { return value_; }
  /// kSend/kRecv/kIsend/kIrecv: message length in bytes (as passed to
  /// MPI_Send; the envelope the MPI implementation adds is part of the
  /// calibration).
  [[nodiscard]] double bytes() const { return value_; }

  static Event compute(double seconds);
  static Event send(TaskId to, double bytes);
  static Event recv(TaskId from, double bytes);
  static Event recv_any(double bytes);
  static Event isend(TaskId to, double bytes);
  static Event irecv(TaskId from, double bytes);
  static Event wait_all();
  static Event barrier();

 private:
  double value_ = 0.0;
};
static_assert(sizeof(Event) == 16, "a trace event is two words");

/// One task's program: the ordered list of its events.
using TaskProgram = std::vector<Event>;

/// A traced application: one program per MPI task (index == task id).
class AppTrace {
 public:
  AppTrace() = default;
  /// `num_tasks` empty programs; 1..kMaxCount (util/limits.hpp) tasks.
  explicit AppTrace(int num_tasks);

  [[nodiscard]] int num_tasks() const { return static_cast<int>(programs_.size()); }
  // Inline: the engine fetches a program on every task step.
  [[nodiscard]] const TaskProgram& program(TaskId t) const {
    BWS_CHECK(t >= 0 && t < num_tasks(),
              strformat("task %d out of range [0,%d)", t, num_tasks()));
    return programs_[static_cast<size_t>(t)];
  }

  /// Append an event to task `t`'s program.
  void push(TaskId t, Event e);

  /// Append a barrier to every task.
  void push_barrier_all();

  /// Totals, for reporting.
  [[nodiscard]] double total_bytes_sent() const;
  [[nodiscard]] size_t total_events() const;

  /// Number of kSend/kIsend events — the communication-record count a replay
  /// of this trace produces (the engine pre-sizes its result with it). O(1):
  /// push() keeps the count, and programs are only reachable read-only.
  [[nodiscard]] size_t total_sends() const { return sends_; }

  /// Sanity-check the trace: every send must have a matching receive
  /// (by task pair and order-insensitive multiset of sizes), barriers must
  /// be consistent. Throws bwshare::Error when violated.
  void validate() const;

 private:
  std::vector<TaskProgram> programs_;
  size_t sends_ = 0;
};

/// Lift a static communication scheme into a one-phase trace: task i stands
/// on node i, every communication is posted non-blocking (all receives, then
/// all sends, in scheme order), then every task waits. All transfers start
/// at t=0 in one event cascade, so the first flush carries the scheme's full
/// component structure. This is how the engine-equivalence fuzz suites and
/// the serving layer replay scheme workloads through run_simulation.
[[nodiscard]] AppTrace trace_from_scheme(const graph::CommGraph& scheme);

}  // namespace bwshare::sim
