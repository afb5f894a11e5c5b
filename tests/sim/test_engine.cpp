// Engine semantics: rendezvous blocking, eager sends, any-source matching,
// barriers, conflict-driven slowdown, deadlock detection.
#include "sim/engine.hpp"

#include <string>

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "models/gige.hpp"
#include "models/myrinet.hpp"
#include "sim/rate_model.hpp"
#include "util/error.hpp"

namespace bwshare::sim {
namespace {

topo::ClusterSpec cluster(int nodes = 8) {
  return topo::ClusterSpec::uniform("test", nodes, 2,
                                    topo::gigabit_ethernet_calibration());
}

Placement identity_placement(int tasks) {
  std::vector<topo::NodeId> nodes(static_cast<size_t>(tasks));
  for (int t = 0; t < tasks; ++t) nodes[static_cast<size_t>(t)] = t;
  return Placement(std::move(nodes));
}

flowsim::FluidRateProvider fluid() {
  return flowsim::FluidRateProvider(topo::gigabit_ethernet_calibration());
}

TEST(Engine, SingleTransferTakesReferenceTime) {
  AppTrace trace(2);
  trace.push(0, Event::send(1, 20e6));
  trace.push(1, Event::recv(0, 20e6));
  const auto provider = fluid();
  const auto spec = cluster();
  const auto result =
      run_simulation(trace, spec, identity_placement(2), provider);
  const auto& net = spec.network();
  EXPECT_NEAR(result.makespan, net.latency + 20e6 / net.reference_bandwidth(),
              1e-3);
  ASSERT_EQ(result.comms.size(), 1u);
  EXPECT_NEAR(result.comms[0].penalty, 1.0, 0.01);
}

TEST(Engine, RendezvousSenderBlocksUntilDrained) {
  AppTrace trace(2);
  trace.push(0, Event::send(1, 20e6));
  trace.push(0, Event::compute(0.001));
  trace.push(1, Event::compute(0.05));  // receiver posts late
  trace.push(1, Event::recv(0, 20e6));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(2), provider);
  // The transfer cannot start before the receive is posted at t=0.05.
  EXPECT_GE(result.comms[0].start, 0.05 - 1e-9);
  EXPECT_GT(result.tasks[0].send_blocked_seconds, 0.05);
}

TEST(Engine, EagerSendDoesNotBlockSender) {
  AppTrace trace(2);
  trace.push(0, Event::send(1, 1024.0));  // below eager threshold
  trace.push(0, Event::compute(0.5));
  trace.push(1, Event::compute(0.2));  // receive posted late
  trace.push(1, Event::recv(0, 1024.0));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(2), provider);
  EXPECT_DOUBLE_EQ(result.tasks[0].send_blocked_seconds, 0.0);
  // Sender's makespan contribution is its compute, not the late receiver.
  EXPECT_NEAR(result.tasks[0].finish_time, 0.5, 1e-6);
}

TEST(Engine, EagerThresholdIs64KiB) {
  // One byte below 64 KiB the send is buffered and returns at once; at
  // 64 KiB it is a rendezvous and the sender blocks until the transfer has
  // drained, which cannot start before the late receive at t=0.2.
  for (const double bytes : {65535.0, 65536.0}) {
    SCOPED_TRACE(bytes);
    AppTrace trace(2);
    trace.push(0, Event::send(1, bytes));
    trace.push(1, Event::compute(0.2));
    trace.push(1, Event::recv(0, bytes));
    const auto provider = fluid();
    const auto result =
        run_simulation(trace, cluster(), identity_placement(2), provider);
    ASSERT_EQ(result.comms.size(), 1u);
    const auto& rec = result.comms[0];
    EXPECT_DOUBLE_EQ(rec.start, 0.2);
    if (bytes < 65536.0) {
      EXPECT_EQ(result.tasks[0].send_blocked_seconds, 0.0);
      EXPECT_EQ(result.tasks[0].finish_time, 0.0);
      EXPECT_EQ(rec.sender_time, 0.0);
    } else {
      // Unblocked at drain time, one network latency before the receiver.
      const double drained = result.tasks[0].finish_time;
      EXPECT_GT(drained, 0.2);
      EXPECT_DOUBLE_EQ(result.tasks[0].send_blocked_seconds, drained);
      EXPECT_DOUBLE_EQ(rec.sender_time, drained);
      EXPECT_NEAR(rec.finish - drained,
                  topo::gigabit_ethernet_calibration().latency, 1e-12);
    }
  }
}

TEST(Engine, AnySourceMatchesEarliestPostedSend) {
  AppTrace trace(3);
  trace.push(1, Event::compute(0.010));
  trace.push(1, Event::send(0, 1e6));
  trace.push(2, Event::compute(0.005));
  trace.push(2, Event::send(0, 2e6));
  trace.push(0, Event::recv_any(0.0));
  trace.push(0, Event::recv_any(0.0));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(3), provider);
  // Records appear in posting order; task 2 posted first (t=5ms), so its
  // message matches the first any-source receive and transfers first.
  ASSERT_EQ(result.comms.size(), 2u);
  EXPECT_EQ(result.comms[0].src_task, 2);
  EXPECT_EQ(result.comms[1].src_task, 1);
  EXPECT_NEAR(result.comms[0].start, 0.005, 1e-6);
  // Task 0's program is sequential: the second receive is only posted after
  // the first transfer completes, so task 1's message starts later.
  EXPECT_GE(result.comms[1].start, result.comms[0].finish - 1e-6);
}

TEST(Engine, AnySourceReceiveTakesTheEarliestOfSeveralPendingSends) {
  // Tasks 3, 1 and 2 post eager sends to task 0 at 2, 4 and 6 ms, so all
  // three are pending when task 0 starts receiving at 10 ms. The receive
  // from task 1 skips task 3's earlier send; the two any-source receives
  // then take the sends left in posting order: task 3's, then task 2's.
  AppTrace trace(4);
  trace.push(3, Event::compute(0.002));
  trace.push(3, Event::send(0, 1e3));
  trace.push(1, Event::compute(0.004));
  trace.push(1, Event::send(0, 1e3));
  trace.push(2, Event::compute(0.006));
  trace.push(2, Event::send(0, 1e3));
  trace.push(0, Event::compute(0.010));
  trace.push(0, Event::recv(1, 1e3));
  trace.push(0, Event::recv_any(1e3));
  trace.push(0, Event::recv_any(1e3));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(4), provider);
  // Records are in posting order: task 3's, task 1's, then task 2's send.
  ASSERT_EQ(result.comms.size(), 3u);
  EXPECT_EQ(result.comms[0].src_task, 3);
  EXPECT_EQ(result.comms[1].src_task, 1);
  EXPECT_EQ(result.comms[2].src_task, 2);
  // Each receive is posted when the one before it has delivered.
  EXPECT_DOUBLE_EQ(result.comms[1].recv_post, 0.010);
  EXPECT_DOUBLE_EQ(result.comms[0].recv_post, result.comms[1].finish);
  EXPECT_DOUBLE_EQ(result.comms[2].recv_post, result.comms[0].finish);
  EXPECT_DOUBLE_EQ(result.makespan, result.comms[2].finish);
}

TEST(Engine, PostedReceivesMatchInPostingOrder) {
  // Task 0 posts two receives from task 1, at t=0 and t=3ms, before either
  // send arrives: the first send takes the earlier receive.
  AppTrace trace(2);
  trace.push(0, Event::irecv(1, 1e6));
  trace.push(0, Event::compute(0.003));
  trace.push(0, Event::irecv(1, 2e6));
  trace.push(0, Event::wait_all());
  trace.push(1, Event::compute(0.010));
  trace.push(1, Event::send(0, 1e6));
  trace.push(1, Event::send(0, 2e6));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(2), provider);
  ASSERT_EQ(result.comms.size(), 2u);
  EXPECT_EQ(result.comms[0].bytes, 1e6);
  EXPECT_DOUBLE_EQ(result.comms[0].recv_post, 0.0);
  EXPECT_DOUBLE_EQ(result.comms[0].start, 0.010);
  EXPECT_EQ(result.comms[1].bytes, 2e6);
  EXPECT_DOUBLE_EQ(result.comms[1].recv_post, 0.003);
}

TEST(Engine, ATransferMovesTheSendsBytes) {
  // The receive's declared size never sizes the transfer, whichever side
  // posts first: 4 MB move where the receive says 1 MB.
  const auto spec = cluster();
  const auto& net = spec.network();
  const double expect = net.latency + 4e6 / net.reference_bandwidth();
  for (const bool recv_first : {true, false}) {
    SCOPED_TRACE(recv_first ? "receive posted first" : "send posted first");
    AppTrace trace(2);
    trace.push(recv_first ? 0 : 1, Event::compute(0.010));
    trace.push(0, Event::send(1, 4e6));
    trace.push(1, Event::recv(0, 1e6));
    const auto provider = fluid();
    const auto result =
        run_simulation(trace, spec, identity_placement(2), provider);
    ASSERT_EQ(result.comms.size(), 1u);
    EXPECT_EQ(result.comms[0].bytes, 4e6);
    EXPECT_NEAR(result.comms[0].start, 0.010, 1e-12);
    EXPECT_NEAR(result.comms[0].duration(), expect, 1e-3);
    EXPECT_NEAR(result.makespan, 0.010 + expect, 1e-3);
  }
}

TEST(Engine, BarrierSynchronizesTasks) {
  AppTrace trace(3);
  trace.push(0, Event::compute(0.3));
  trace.push(1, Event::compute(0.1));
  trace.push(2, Event::compute(0.2));
  trace.push_barrier_all();
  trace.push(0, Event::compute(0.01));
  trace.push(1, Event::compute(0.01));
  trace.push(2, Event::compute(0.01));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(3), provider);
  EXPECT_NEAR(result.makespan, 0.31, 1e-9);
  // Task 1 waited 0.2 at the barrier, task 0 didn't wait.
  EXPECT_NEAR(result.tasks[1].barrier_wait_seconds, 0.2, 1e-9);
  EXPECT_NEAR(result.tasks[0].barrier_wait_seconds, 0.0, 1e-9);
}

TEST(Engine, ConcurrentSendsFromOneNodeShareBandwidth) {
  // Tasks 0,1 on node 0 send to nodes 1,2 simultaneously: fig-2 S2 shape.
  AppTrace trace(4);
  trace.push(0, Event::send(2, 20e6));
  trace.push(1, Event::send(3, 20e6));
  trace.push(2, Event::recv(0, 20e6));
  trace.push(3, Event::recv(1, 20e6));
  Placement placement({0, 0, 1, 2});
  const auto provider = fluid();
  const auto result = run_simulation(trace, cluster(), placement, provider);
  for (const auto& c : result.comms) EXPECT_NEAR(c.penalty, 1.5, 0.02);
}

TEST(Engine, IntraNodeCommsUseSharedMemory) {
  AppTrace trace(2);
  trace.push(0, Event::send(1, 8e6));
  trace.push(1, Event::recv(0, 8e6));
  Placement placement({0, 0});  // same node
  const auto provider = fluid();
  const auto spec = cluster();
  const auto result = run_simulation(trace, spec, placement, provider);
  const auto& net = spec.network();
  EXPECT_NEAR(result.makespan, 8e6 / net.shm_bandwidth, 1e-3);
}

TEST(Engine, ModelProviderUsesPenalties) {
  // Two concurrent sends from one node under the GigE model: 1.5x each.
  AppTrace trace(4);
  trace.push(0, Event::send(2, 20e6));
  trace.push(1, Event::send(3, 20e6));
  trace.push(2, Event::recv(0, 20e6));
  trace.push(3, Event::recv(1, 20e6));
  Placement placement({0, 0, 1, 2});
  const auto model = std::make_shared<models::GigabitEthernetModel>();
  const ModelRateProvider provider(model,
                                   topo::gigabit_ethernet_calibration());
  const auto result = run_simulation(trace, cluster(), placement, provider);
  for (const auto& c : result.comms) EXPECT_NEAR(c.penalty, 1.5, 0.01);
}

TEST(Engine, StaggeredTransfersChangeRatesMidFlight) {
  // Second transfer starts halfway through the first: the first runs at
  // full speed, then shares, so its penalty lands strictly between 1 and
  // the fully shared value.
  AppTrace trace(4);
  trace.push(0, Event::send(2, 20e6));
  trace.push(1, Event::compute(0.1));
  trace.push(1, Event::send(3, 20e6));
  trace.push(2, Event::recv(0, 20e6));
  trace.push(3, Event::recv(1, 20e6));
  Placement placement({0, 0, 1, 2});
  const auto provider = fluid();
  const auto result = run_simulation(trace, cluster(), placement, provider);
  const auto& first = result.comms[0];
  EXPECT_GT(first.penalty, 1.05);
  EXPECT_LT(first.penalty, 1.5);
}

TEST(Engine, DeadlockIsDetected) {
  AppTrace trace(2);
  trace.push(0, Event::recv(1, 1e6));
  trace.push(1, Event::recv(0, 1e6));
  const auto provider = fluid();
  EXPECT_THROW(
      run_simulation(trace, cluster(), identity_placement(2), provider),
      Error);
}

TEST(Engine, DeadlockMessageNamesEveryTaskState) {
  const auto provider = fluid();
  const auto deadlock_message = [&](const AppTrace& trace) {
    try {
      (void)run_simulation(trace, cluster(),
                           identity_placement(trace.num_tasks()), provider);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string("no deadlock");
  };
  AppTrace trace(7);
  // 0 and 1 each wait to receive from the other first.
  trace.push(0, Event::recv(1, 1e6));
  trace.push(0, Event::send(1, 1e6));
  trace.push(1, Event::recv(0, 1e6));
  trace.push(1, Event::send(0, 1e6));
  // 2 has nothing to do. 3 waits on an irecv from 4, which first waits to
  // receive from 3.
  trace.push(3, Event::irecv(4, 1e6));
  trace.push(3, Event::wait_all());
  trace.push(3, Event::send(4, 1e6));
  trace.push(4, Event::recv(3, 1e6));
  trace.push(4, Event::send(3, 1e6));
  // 5 and 6 each block in a rendezvous send to the other.
  trace.push(5, Event::send(6, 1e6));
  trace.push(5, Event::recv(6, 1e6));
  trace.push(6, Event::send(5, 1e6));
  trace.push(6, Event::recv(5, 1e6));
  const std::string msg = deadlock_message(trace);
  EXPECT_NE(msg.find("simulation deadlock: task0=recv task1=recv task2=done "
                     "task3=waitall task4=recv task5=send task6=send"),
            std::string::npos)
      << msg;

  // A task parked at a barrier its peer cannot reach.
  AppTrace barrier(2);
  barrier.push(0, Event::recv(1, 1e6));
  barrier.push(0, Event::barrier());
  barrier.push(1, Event::barrier());
  barrier.push(1, Event::send(0, 1e6));
  const std::string at_barrier = deadlock_message(barrier);
  EXPECT_NE(at_barrier.find("task0=recv task1=barrier"), std::string::npos)
      << at_barrier;
}

TEST(Engine, MismatchedPlacementRejected) {
  AppTrace trace(3);
  const auto provider = fluid();
  EXPECT_THROW(
      run_simulation(trace, cluster(), identity_placement(2), provider),
      Error);
}

TEST(Engine, BarrierReleaseCostsNoTime) {
  // The last task reaches the barrier at t=2; every task leaves it at
  // exactly t=2, so the post-barrier compute ends at exactly 2.25.
  AppTrace trace(3);
  trace.push(0, Event::compute(0.5));
  trace.push(1, Event::compute(2.0));
  trace.push(2, Event::compute(1.0));
  trace.push_barrier_all();
  for (TaskId t = 0; t < 3; ++t) trace.push(t, Event::compute(0.25));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(3), provider);
  EXPECT_EQ(result.makespan, 2.25);
  for (const auto& task : result.tasks) EXPECT_EQ(task.finish_time, 2.25);
  EXPECT_EQ(result.tasks[0].barrier_wait_seconds, 1.5);
  EXPECT_EQ(result.tasks[1].barrier_wait_seconds, 0.0);
  EXPECT_EQ(result.tasks[2].barrier_wait_seconds, 1.0);
}

TEST(Engine, ReplayMayEndExactlyAtTheTimeLimit) {
  AppTrace trace(1);
  trace.push(0, Event::compute(1e9));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(1), provider);
  EXPECT_EQ(result.makespan, 1e9);
}

TEST(Engine, EventPastTheTimeLimitThrows) {
  // The 1e9 s safety net stops a replay whose next event lies beyond it.
  AppTrace trace(1);
  trace.push(0, Event::compute(1e9));
  trace.push(0, Event::compute(1.0));
  const auto provider = fluid();
  try {
    (void)run_simulation(trace, cluster(), identity_placement(1), provider);
    FAIL() << "replay ran past the time limit";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeded the 1e9 s time limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(Engine, ZeroByteMessageCostsLatency) {
  AppTrace trace(2);
  trace.push(0, Event::send(1, 0.0));
  trace.push(1, Event::recv(0, 0.0));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(2), provider);
  EXPECT_GT(result.makespan, 0.0);
  EXPECT_LT(result.makespan, 1e-3);
}

TEST(Engine, ResultAccountingIsConsistent) {
  AppTrace trace(3);
  trace.push(0, Event::send(1, 5e6));
  trace.push(0, Event::send(2, 5e6));
  trace.push(1, Event::recv(0, 5e6));
  trace.push(2, Event::recv(0, 5e6));
  const auto provider = fluid();
  const auto result =
      run_simulation(trace, cluster(), identity_placement(3), provider);
  EXPECT_EQ(result.comms.size(), 2u);
  EXPECT_EQ(result.tasks[0].sends, 2);
  EXPECT_EQ(result.tasks[1].recvs, 1);
  for (const auto& c : result.comms) {
    EXPECT_GE(c.finish, c.start);
    EXPECT_GE(c.start, c.send_post);
    EXPECT_GE(c.penalty, 0.99);
  }
  EXPECT_DOUBLE_EQ(result.task_comm_time(0),
                   result.tasks[0].send_blocked_seconds);
}

}  // namespace
}  // namespace bwshare::sim
