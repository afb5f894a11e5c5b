#include "sim/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "util/error.hpp"

namespace bwshare::sim {
namespace {

AppTrace sample_trace() {
  AppTrace trace(3);
  trace.push(0, Event::compute(0.25));
  trace.push(0, Event::send(1, 4e6));
  trace.push(1, Event::recv(0, 4e6));
  trace.push(2, Event::send(1, 1e3));
  trace.push(1, Event::recv_any(1e3));
  trace.push(1, Event::irecv(0, 2e3));
  trace.push(0, Event::isend(1, 2e3));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::wait_all());
  trace.push_barrier_all();
  return trace;
}

TEST(TraceIo, RoundTrip) {
  const auto original = sample_trace();
  const auto text = write_trace(original);
  const auto parsed = read_trace(text);
  ASSERT_EQ(parsed.num_tasks(), original.num_tasks());
  for (TaskId t = 0; t < original.num_tasks(); ++t) {
    const auto& a = original.program(t);
    const auto& b = parsed.program(t);
    ASSERT_EQ(a.size(), b.size()) << "task " << t;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].kind, b[i].kind);
      EXPECT_EQ(a[i].peer, b[i].peer);
      EXPECT_DOUBLE_EQ(a[i].bytes, b[i].bytes);
      EXPECT_DOUBLE_EQ(a[i].seconds, b[i].seconds);
    }
  }
}

TEST(TraceIo, CommentsAndWhitespace) {
  const auto trace = read_trace(R"(
# a comment
tasks 2

0 send 1 100   # trailing comment
1 recv 0 100
)");
  EXPECT_EQ(trace.num_tasks(), 2);
  EXPECT_EQ(trace.program(0).size(), 1u);
}

TEST(TraceIo, Errors) {
  EXPECT_THROW(read_trace("0 send 1 100"), Error);       // no tasks line
  EXPECT_THROW(read_trace("tasks 0"), Error);            // bad count
  EXPECT_THROW(read_trace("tasks 2\n5 compute 1"), Error);  // task range
  EXPECT_THROW(read_trace("tasks 2\n0 explode"), Error);  // unknown kind
  EXPECT_THROW(read_trace("tasks 2\n0 send 1"), Error);   // missing size
  EXPECT_THROW(read_trace("tasks 2\nxyz barrier"), Error);  // bad task id
  EXPECT_THROW(read_trace("tasks 2\n1 send abc 100"), Error);  // bad peer
  EXPECT_THROW(read_trace("tasks 2\n0 send -1 100"), Error);   // peer range
  EXPECT_THROW(read_trace("tasks 2x\n0 send 1 100"), Error);   // bad count
  EXPECT_THROW(read_trace("tasks 2\n0 compute abc"), Error);   // bad duration
  EXPECT_THROW(read_trace("tasks 2\n0 send 1 junk"), Error);   // bad size
  EXPECT_THROW(read_trace("tasks 2\n0 send 1 -100"), Error);   // negative size
  EXPECT_THROW(read_trace("tasks 4294967297\n0 barrier"), Error);  // int wrap
  EXPECT_THROW(read_trace("tasks 2\n0 compute nan"), Error);   // non-finite
  EXPECT_THROW(read_trace("tasks 2\n0 send 1 1e999"), Error);  // overflow
}

TEST(TraceIo, StarAppliesEventToEveryTask) {
  const auto trace = read_trace(R"(
tasks 3
0 send 1 100
1 recv 0 100
* barrier
)");
  for (TaskId t = 0; t < trace.num_tasks(); ++t) {
    const auto& program = trace.program(t);
    ASSERT_FALSE(program.empty()) << "task " << t;
    EXPECT_EQ(program.back().kind, EventKind::kBarrier) << "task " << t;
  }
}

TEST(TraceIo, FileRoundTrip) {
  const auto original = sample_trace();
  const std::string path = ::testing::TempDir() + "/bwshare_trace.txt";
  write_trace_file(original, path);
  const auto parsed = read_trace_file(path);
  EXPECT_EQ(parsed.total_events(), original.total_events());
  // read_trace builds through AppTrace::push, which keeps the send count.
  EXPECT_EQ(original.total_sends(), 3u);  // send, send, isend
  EXPECT_EQ(parsed.total_sends(), original.total_sends());
  std::remove(path.c_str());
  EXPECT_THROW(read_trace_file("/nonexistent/trace.txt"), Error);
}

}  // namespace
}  // namespace bwshare::sim
