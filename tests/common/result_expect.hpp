// Shared bitwise SimResult comparison for every suite that pins the
// engine's determinism contract: the sim verify-oracle fuzzes (verify vs
// default replays) and the serving conformance suite (cached/warm/coalesced
// answers vs fresh replays).
//
// Two layers on purpose:
//   * sim::bit_identical (src/sim/engine.hpp) is the product-side one-bool
//     gate — every field of every record, exact ==;
//   * expect_bit_identical re-walks the fields with per-field EXPECTs so a
//     regression names the first diverging field and index instead of
//     reporting one opaque false.
#pragma once

#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace bwshare::sim {

/// Exact equality — the compared replays run the same arithmetic in the
/// same order, so every derived number must match to the last bit. Also
/// covers the dynamic-cluster bookkeeping: abort/background flags per
/// record and the scenario counters.
inline void expect_bit_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.aborted_comms, b.aborted_comms);
  EXPECT_EQ(a.background_comms, b.background_comms);
  EXPECT_EQ(a.background_skipped, b.background_skipped);
  ASSERT_EQ(a.comms.size(), b.comms.size());
  for (size_t i = 0; i < a.comms.size(); ++i) {
    EXPECT_EQ(a.comms[i].src_task, b.comms[i].src_task) << "comm " << i;
    EXPECT_EQ(a.comms[i].dst_task, b.comms[i].dst_task) << "comm " << i;
    EXPECT_EQ(a.comms[i].src_node, b.comms[i].src_node) << "comm " << i;
    EXPECT_EQ(a.comms[i].dst_node, b.comms[i].dst_node) << "comm " << i;
    EXPECT_EQ(a.comms[i].bytes, b.comms[i].bytes) << "comm " << i;
    EXPECT_EQ(a.comms[i].send_post, b.comms[i].send_post) << "comm " << i;
    EXPECT_EQ(a.comms[i].recv_post, b.comms[i].recv_post) << "comm " << i;
    EXPECT_EQ(a.comms[i].start, b.comms[i].start) << "comm " << i;
    EXPECT_EQ(a.comms[i].finish, b.comms[i].finish) << "comm " << i;
    EXPECT_EQ(a.comms[i].penalty, b.comms[i].penalty) << "comm " << i;
    EXPECT_EQ(a.comms[i].sender_time, b.comms[i].sender_time)
        << "comm " << i;
    EXPECT_EQ(a.comms[i].background, b.comms[i].background) << "comm " << i;
    EXPECT_EQ(a.comms[i].aborted, b.comms[i].aborted) << "comm " << i;
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (size_t t = 0; t < a.tasks.size(); ++t) {
    EXPECT_EQ(a.tasks[t].finish_time, b.tasks[t].finish_time)
        << "task " << t;
    EXPECT_EQ(a.tasks[t].compute_seconds, b.tasks[t].compute_seconds)
        << "task " << t;
    EXPECT_EQ(a.tasks[t].send_blocked_seconds,
              b.tasks[t].send_blocked_seconds)
        << "task " << t;
    EXPECT_EQ(a.tasks[t].recv_blocked_seconds,
              b.tasks[t].recv_blocked_seconds)
        << "task " << t;
    EXPECT_EQ(a.tasks[t].barrier_wait_seconds,
              b.tasks[t].barrier_wait_seconds)
        << "task " << t;
    EXPECT_EQ(a.tasks[t].sends, b.tasks[t].sends) << "task " << t;
    EXPECT_EQ(a.tasks[t].recvs, b.tasks[t].recvs) << "task " << t;
  }
  // The per-field walk above and the product-side gate must agree.
  EXPECT_TRUE(bit_identical(a, b));
}

}  // namespace bwshare::sim
