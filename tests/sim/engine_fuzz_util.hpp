// Shared fuzz machinery for the engine's verify-oracle suites
// (test_engine_queue.cpp: churning traces; test_engine_incremental.cpp:
// generator families and random traces; test_engine_churn.cpp:
// dynamic-cluster scenarios). All replay a workload twice — by default and
// under EngineConfig::verify, which re-derives every shortcut the engine
// takes and throws on the first divergence — and compare the two replays
// bit for bit. The churning workload forces mid-flight re-predictions in
// both directions (joins shrink rates, completions grow them), mixed with
// eager and rendezvous sizes, zero-length computes and barriers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/result_expect.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "sim/engine.hpp"
#include "sim/events.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "util/rng.hpp"

namespace bwshare::sim {

/// The parameter of the AllFamilies suites: a generator spec and a seed.
/// The spec is a std::string so that gtest prints its text, not the
/// address of a literal, into each test's listing.
using SpecSeed = std::tuple<std::string, uint64_t>;

/// One generator spec per family, the AllFamilies suites' first axis.
inline auto all_family_specs() {
  return ::testing::Values(std::string("ring:nodes=8"),
                           std::string("hotspot:nodes=9,bytes=2M"),
                           std::string("random:nodes=10,comms=18,spread=1"),
                           std::string("alltoall:nodes=4"));
}

/// Names an AllFamilies case by its spec's family and its seed, "ring_1":
/// stable across builds, so ctest names can be listed and filtered.
inline std::string spec_seed_name(
    const ::testing::TestParamInfo<SpecSeed>& info) {
  const std::string_view spec = std::get<0>(info.param);
  return std::string(spec.substr(0, spec.find(':'))) + "_" +
         std::to_string(std::get<1>(info.param));
}

/// The engine's oracle contract on one workload: a verify replay must not
/// throw, and must be bit-identical to the default replay.
inline void expect_verify_matches_default(const AppTrace& trace,
                                          const topo::ClusterSpec& cluster,
                                          const Placement& placement,
                                          const flowsim::RateProvider& provider,
                                          const Scenario& scenario = {}) {
  EngineConfig cfg;
  const SimResult plain =
      run_simulation(trace, cluster, placement, provider, scenario, cfg);
  cfg.verify = true;
  SimResult verified;
  ASSERT_NO_THROW(verified = run_simulation(trace, cluster, placement,
                                            provider, scenario, cfg));
  expect_bit_identical(plain, verified);
}

/// Staggered trace with heavy prediction churn: rounds of hotspot fan-ins
/// (everyone funnels into a rotating sink) mixed with random pairs, eager
/// and rendezvous sizes, zero-length and short computes, barriers.
inline AppTrace churn_trace(uint64_t seed, int tasks) {
  Rng rng(seed * 9176959ULL + 11);
  AppTrace trace(tasks);
  const int rounds = 2 + static_cast<int>(rng.below(3));
  for (int round = 0; round < rounds; ++round) {
    const TaskId sink = static_cast<TaskId>(rng.below(static_cast<uint64_t>(tasks)));
    for (TaskId src = 0; src < tasks; ++src) {
      if (src == sink) continue;
      // The fan-in: staggered joins shrink rates (finish times re-predict
      // later); each completion restores them (re-predict earlier).
      const double bytes = rng.uniform() < 0.25 ? 2e3 : rng.uniform(3e5, 5e6);
      trace.push(sink, Event::irecv(src, bytes));
      if (rng.uniform() < 0.4)
        trace.push(src, Event::compute(rng.uniform(0.0, 0.01)));
      if (rng.uniform() < 0.5) {
        trace.push(src, Event::isend(sink, bytes));
        trace.push(src, Event::wait_all());
      } else {
        trace.push(src, Event::send(sink, bytes));
      }
    }
    trace.push(sink, Event::wait_all());
    // Extra cross traffic so several components churn at once.
    for (TaskId src = 0; src < tasks; ++src) {
      if (rng.uniform() < 0.5) continue;
      TaskId dst = static_cast<TaskId>(rng.below(static_cast<uint64_t>(tasks)));
      if (dst == src) dst = (dst + 1) % tasks;
      const double bytes = rng.uniform(1e5, 2e6);
      trace.push(dst, Event::irecv(src, bytes));
      trace.push(src, Event::isend(dst, bytes));
      trace.push(src, Event::wait_all());
    }
    for (TaskId t = 0; t < tasks; ++t) {
      if (rng.uniform() < 0.3)
        trace.push(t, Event::compute(rng.uniform() < 0.3
                                         ? 0.0
                                         : rng.uniform(0.0, 0.02)));
      trace.push(t, Event::wait_all());
    }
    trace.push_barrier_all();
  }
  return trace;
}

// (trace_from_scheme used to live here; it is library code now —
// sim/events.hpp — because the serving layer lifts scheme queries through
// the same one-phase expansion.)

inline Placement identity_placement(int n) {
  std::vector<topo::NodeId> nodes(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) nodes[static_cast<size_t>(i)] = i;
  return Placement(std::move(nodes));
}

/// A seeded dynamic-cluster script: Poisson join/leave/fail churn plus
/// background cross-traffic over `horizon` seconds on `nodes` nodes. The
/// rates are tuned so a handful of each kind lands inside a typical
/// churn_trace makespan — enough to hit the abort and admission-gating
/// paths without drowning the measured job.
inline Scenario churn_scenario(uint64_t seed, int nodes,
                               double horizon = 0.5) {
  graph::ChurnSpec churn;
  churn.rate = 24.0;
  churn.horizon = horizon;
  churn.nodes = nodes;
  churn.p_fail = 0.6;
  graph::BackgroundSpec background;
  background.rate = 40.0;
  background.horizon = horizon;
  background.nodes = nodes;
  background.bytes = 8e5;
  background.spread = 2.0;
  Scenario scenario;
  scenario.churn = graph::generate_churn(churn, seed);
  scenario.background = graph::generate_background(background, seed);
  return scenario;
}

}  // namespace bwshare::sim
