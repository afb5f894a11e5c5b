#include "sim/events.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace bwshare::sim {
namespace {

TEST(Events, Factories) {
  const auto c = Event::compute(1.5);
  EXPECT_EQ(c.kind, EventKind::kCompute);
  EXPECT_DOUBLE_EQ(c.seconds(), 1.5);
  const auto s = Event::send(3, 1e6);
  EXPECT_EQ(s.kind, EventKind::kSend);
  EXPECT_EQ(s.peer, 3);
  const auto r = Event::recv_any(2e6);
  EXPECT_EQ(r.peer, kAnySource);
  EXPECT_THROW(Event::compute(-1.0), Error);
  EXPECT_THROW(Event::send(-2, 1.0), Error);
  EXPECT_THROW(Event::recv(-3, 1.0), Error);
}

// Each factory's kind, peer and value, read back through the 16-byte layout
// (one value field that seconds() and bytes() both name). Values are exact
// binary fractions, so the comparisons are exact.
TEST(Events, FactoriesReadBackKindPeerAndValue) {
  struct Case {
    Event event;
    EventKind kind;
    TaskId peer;
    double value;  // seconds for kCompute, bytes otherwise
  };
  const Case cases[] = {
      {Event::compute(2.5), EventKind::kCompute, 0, 2.5},
      {Event::compute(0.0), EventKind::kCompute, 0, 0.0},
      {Event::send(7, 65536.0), EventKind::kSend, 7, 65536.0},
      {Event::recv(3, 0.5), EventKind::kRecv, 3, 0.5},
      {Event::recv_any(1e6), EventKind::kRecv, kAnySource, 1e6},
      {Event::isend(2147483647, 1.25), EventKind::kIsend, 2147483647, 1.25},
      {Event::irecv(kAnySource, 4096.0), EventKind::kIrecv, kAnySource,
       4096.0},
      {Event::irecv(0, 0.0), EventKind::kIrecv, 0, 0.0},
      {Event::wait_all(), EventKind::kWaitAll, 0, 0.0},
      {Event::barrier(), EventKind::kBarrier, 0, 0.0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.kind));
    EXPECT_EQ(c.event.kind, c.kind);
    EXPECT_EQ(c.event.peer, c.peer);
    if (c.kind == EventKind::kCompute)
      EXPECT_EQ(c.event.seconds(), c.value);
    else
      EXPECT_EQ(c.event.bytes(), c.value);
  }
  // A default event is a zero-length compute.
  const Event d;
  EXPECT_EQ(d.kind, EventKind::kCompute);
  EXPECT_EQ(d.peer, 0);
  EXPECT_EQ(d.seconds(), 0.0);
}

TEST(AppTrace, PushAndTotals) {
  AppTrace trace(2);
  trace.push(0, Event::compute(1.0));
  trace.push(0, Event::send(1, 100.0));
  trace.push(1, Event::recv(0, 100.0));
  trace.push(1, Event::compute(2.0));
  EXPECT_EQ(trace.total_events(), 4u);
  EXPECT_DOUBLE_EQ(trace.program(0)[0].seconds(), 1.0);
  EXPECT_DOUBLE_EQ(trace.program(1)[1].seconds(), 2.0);
  EXPECT_DOUBLE_EQ(trace.total_bytes_sent(), 100.0);
}

TEST(AppTrace, TotalBytesSentCountsNonBlockingSends) {
  // A ring of isend/irecv/wait_all, the shape of data/ring8.trace.
  AppTrace trace(4);
  for (TaskId t = 0; t < 4; ++t) {
    trace.push(t, Event::isend((t + 1) % 4, 1e6));
    trace.push(t, Event::irecv((t + 3) % 4, 1e6));
    trace.push(t, Event::wait_all());
  }
  trace.push(0, Event::send(1, 100.0));
  trace.push(1, Event::recv(0, 100.0));
  EXPECT_DOUBLE_EQ(trace.total_bytes_sent(), 4e6 + 100.0);
}

TEST(AppTrace, ValidateAcceptsMatchedTraffic) {
  AppTrace trace(3);
  trace.push(0, Event::send(1, 10.0));
  trace.push(2, Event::send(1, 20.0));
  trace.push(1, Event::recv(0, 10.0));
  trace.push(1, Event::recv_any(20.0));
  EXPECT_NO_THROW(trace.validate());
}

TEST(AppTrace, ValidateRejectsMissingRecv) {
  AppTrace trace(2);
  trace.push(0, Event::send(1, 10.0));
  EXPECT_THROW(trace.validate(), Error);
}

TEST(AppTrace, ValidateRejectsSelfSend) {
  AppTrace trace(2);
  trace.push(0, Event::send(0, 10.0));
  EXPECT_THROW(trace.validate(), Error);
}

TEST(AppTrace, ValidateRejectsUnbalancedBarriers) {
  AppTrace trace(2);
  trace.push(0, Event::barrier());
  EXPECT_THROW(trace.validate(), Error);
  trace.push(1, Event::barrier());
  EXPECT_NO_THROW(trace.validate());
}

// total_sends() is a running count kept by push(); walk the events to check
// it against the definition.
size_t walked_sends(const AppTrace& trace) {
  size_t sends = 0;
  for (TaskId t = 0; t < trace.num_tasks(); ++t)
    for (const auto& e : trace.program(t))
      if (e.kind == EventKind::kSend || e.kind == EventKind::kIsend) ++sends;
  return sends;
}

TEST(AppTrace, TotalSendsCountsBlockingAndNonBlockingSends) {
  AppTrace trace(3);
  EXPECT_EQ(trace.total_sends(), 0u);
  trace.push(0, Event::send(1, 10.0));
  trace.push(0, Event::isend(2, 10.0));
  trace.push(1, Event::recv(0, 10.0));
  trace.push(2, Event::irecv(0, 10.0));
  trace.push(0, Event::wait_all());
  trace.push(2, Event::wait_all());
  trace.push(1, Event::compute(1.0));
  trace.push_barrier_all();
  EXPECT_EQ(trace.total_sends(), 2u);
  EXPECT_EQ(trace.total_sends(), walked_sends(trace));
  // A rejected push must not count.
  EXPECT_THROW(trace.push(3, Event::send(0, 1.0)), Error);
  EXPECT_EQ(trace.total_sends(), 2u);
}

TEST(AppTrace, TotalSendsOfASchemeTraceIsItsCommCount) {
  graph::CommGraph scheme;
  scheme.add(0, 1, 4e6);
  scheme.add(0, 2, 4e6);
  scheme.add(2, 1, 1e6);
  scheme.add(3, 0, 2e6);
  const AppTrace trace = trace_from_scheme(scheme);
  EXPECT_EQ(trace.total_sends(), static_cast<size_t>(scheme.size()));
  EXPECT_EQ(trace.total_sends(), walked_sends(trace));
}

TEST(AppTrace, PushBarrierAll) {
  AppTrace trace(3);
  trace.push_barrier_all();
  for (TaskId t = 0; t < 3; ++t) {
    ASSERT_EQ(trace.program(t).size(), 1u);
    EXPECT_EQ(trace.program(t)[0].kind, EventKind::kBarrier);
  }
}

}  // namespace
}  // namespace bwshare::sim
