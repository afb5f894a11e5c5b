#include "mpi/minimpi.hpp"

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace bwshare::mpi {
namespace {

TEST(MiniMpi, RecordsPerRankPrograms) {
  MiniMpi mpi(3);
  mpi.run([](Rank& self) {
    self.compute(0.1 * (self.rank() + 1));
    if (self.rank() == 0) self.send(1, 1e6);
    if (self.rank() == 1) self.recv(0, 1e6);
    self.barrier();
  });
  const auto& trace = mpi.trace();
  EXPECT_EQ(trace.num_tasks(), 3);
  EXPECT_EQ(trace.program(0).size(), 3u);  // compute, send, barrier
  EXPECT_EQ(trace.program(2).size(), 2u);  // compute, barrier
}

TEST(MiniMpi, RingProgramRunsOnEngine) {
  const int p = 4;
  MiniMpi mpi(p);
  mpi.run([p](Rank& self) {
    // Classic ring: rank 0 starts, everyone forwards.
    if (self.rank() == 0) {
      self.send(1, 4e6);
      self.recv(p - 1, 4e6);
    } else {
      self.recv(self.rank() - 1, 4e6);
      self.send((self.rank() + 1) % p, 4e6);
    }
  });
  const auto cluster = topo::ClusterSpec::uniform(
      "t", p, 1, topo::myrinet2000_calibration());
  const auto placement = sim::make_placement(
      sim::SchedulingPolicy::kRoundRobinNode, cluster, p);
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto result =
      sim::run_simulation(mpi.trace(), cluster, placement, provider);
  // Four sequential hops around the ring.
  const double hop = cluster.network().reference_time(4e6);
  EXPECT_NEAR(result.makespan, 4 * hop, 4 * hop * 0.05);
}

TEST(MiniMpi, SelfSendRejected) {
  MiniMpi mpi(2);
  EXPECT_THROW(mpi.run([](Rank& self) { self.send(self.rank(), 1.0); }),
               Error);
}

TEST(MiniMpi, RangeChecks) {
  MiniMpi mpi(2);
  EXPECT_THROW(mpi.run([](Rank& self) {
    if (self.rank() == 0) self.send(5, 1.0);
  }), Error);
  EXPECT_THROW(MiniMpi{0}, Error);
}

TEST(MiniMpi, RecordsNonBlockingCalls) {
  const int p = 3;
  MiniMpi mpi(p);
  mpi.run([p](Rank& self) {
    self.irecv((self.rank() + p - 1) % p, 2e6);
    self.isend((self.rank() + 1) % p, 2e6);
    self.wait_all();
  });
  const auto& trace = mpi.trace();
  for (sim::TaskId t = 0; t < p; ++t) {
    const auto& program = trace.program(t);
    ASSERT_EQ(program.size(), 3u);
    EXPECT_EQ(program[0].kind, sim::EventKind::kIrecv);
    EXPECT_EQ(program[0].peer, (t + p - 1) % p);
    EXPECT_EQ(program[1].kind, sim::EventKind::kIsend);
    EXPECT_EQ(program[1].peer, (t + 1) % p);
    EXPECT_EQ(program[2].kind, sim::EventKind::kWaitAll);
  }
  EXPECT_EQ(trace.total_sends(), 3u);
  EXPECT_DOUBLE_EQ(trace.total_bytes_sent(), 6e6);
  // Every receive is posted before any send, so the ring cannot deadlock.
  const auto cluster = topo::ClusterSpec::uniform(
      "t", p, 1, topo::myrinet2000_calibration());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto result =
      sim::run_simulation(trace, cluster, sim::Placement({0, 1, 2}), provider);
  EXPECT_EQ(result.comms.size(), 3u);
}

TEST(MiniMpi, RecvAnyAcceptsEitherSender) {
  MiniMpi mpi(3);
  mpi.run([](Rank& self) {
    if (self.rank() == 0) {
      self.recv_any(1e6);
      self.recv_any(1e6);
    } else {
      self.compute(0.01 * self.rank());
      self.send(0, 1e6);
    }
  });
  const auto& trace = mpi.trace();
  for (const auto& e : trace.program(0)) {
    EXPECT_EQ(e.kind, sim::EventKind::kRecv);
    EXPECT_EQ(e.peer, sim::kAnySource);
  }
  const auto cluster = topo::ClusterSpec::uniform(
      "t", 3, 1, topo::gigabit_ethernet_calibration());
  const flowsim::FluidRateProvider provider(cluster.network());
  const auto result =
      sim::run_simulation(trace, cluster, sim::Placement({0, 1, 2}), provider);
  ASSERT_EQ(result.comms.size(), 2u);
  EXPECT_EQ(result.tasks[0].recvs, 2);
  // Rank 1 posts first, so the first any-source receive matches it; the
  // second one takes rank 2's send.
  const auto& a = result.comms[0];
  const auto& b = result.comms[1];
  EXPECT_EQ((a.start < b.start ? a : b).src_task, 1);
  EXPECT_EQ((a.start < b.start ? b : a).src_task, 2);
  EXPECT_EQ(a.dst_task, 0);
  EXPECT_EQ(b.dst_task, 0);
}

TEST(MiniMpi, NonBlockingRangeChecks) {
  MiniMpi mpi(2);
  EXPECT_THROW(mpi.run([](Rank& self) { self.isend(self.rank(), 1.0); }),
               Error);
  EXPECT_THROW(mpi.run([](Rank& self) {
    if (self.rank() == 0) self.isend(2, 1.0);
  }), Error);
  EXPECT_THROW(mpi.run([](Rank& self) {
    if (self.rank() == 0) self.isend(-1, 1.0);
  }), Error);
  EXPECT_THROW(mpi.run([](Rank& self) {
    if (self.rank() == 1) self.irecv(2, 1.0);
  }), Error);
  EXPECT_THROW(mpi.run([](Rank& self) {
    if (self.rank() == 1) self.irecv(-1, 1.0);
  }), Error);
}

TEST(MiniMpi, UnmatchedTrafficFailsValidation) {
  MiniMpi mpi(2);
  mpi.run([](Rank& self) {
    if (self.rank() == 0) self.send(1, 1.0);  // no matching recv
  });
  EXPECT_THROW((void)mpi.trace(), Error);
}

}  // namespace
}  // namespace bwshare::mpi
