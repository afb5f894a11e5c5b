// A lookahead HPL trace under EngineConfig::verify: the workload of the
// paper's §VI evaluation, at the small shape perfbench's tiny hpl_grid uses
// (n = 2400, nb = 40, 32 tasks on 16 nodes of 2 cores). The trace mixes
// Irecv/WaitAll, rendezvous sends, receive-latency compute bursts and two
// tasks per node, so every event path of the engine runs. Each network x
// placement x provider case (fluid, or the network's own penalty model)
// replays it by default and under verify, whose oracles re-derive every
// event choice and re-solve the whole active set; the two replays must be
// bit-identical.
#include <exception>
#include <string>

#include <gtest/gtest.h>

#include "flowsim/fluid_network.hpp"
#include "hpl/hpl_trace.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "topo/cluster.hpp"
#include "topo/network.hpp"

namespace bwshare::hpl {
namespace {

sim::AppTrace tiny_hpl_trace() {
  HplParams params;
  params.n = 2400;
  params.nb = 40;
  params.tasks = 32;
  return make_hpl_trace(params);
}

const char* short_name(topo::NetworkTech tech) {
  switch (tech) {
    case topo::NetworkTech::kGigabitEthernet: return "gige";
    case topo::NetworkTech::kMyrinet2000: return "myrinet";
    case topo::NetworkTech::kInfinibandInfinihost3: return "ib";
  }
  return "?";
}

// One test over the 18 cases (about 0.15 s in all), so each case's failure
// names the case without adding parameterized test names.
TEST(HplVerify, TinyGridReplaysBitIdenticallyUnderVerify) {
  const sim::AppTrace trace = tiny_hpl_trace();
  ASSERT_NO_THROW(trace.validate());
  int cases = 0;
  for (const auto tech : {topo::NetworkTech::kGigabitEthernet,
                          topo::NetworkTech::kMyrinet2000,
                          topo::NetworkTech::kInfinibandInfinihost3}) {
    const auto cal = topo::calibration_for(tech);
    const auto cluster = topo::ClusterSpec::uniform("hpl", 16, 2, cal);
    const flowsim::FluidRateProvider fluid(cal);
    const sim::ModelRateProvider network_model(models::model_for(tech), cal);
    for (const auto policy : {sim::SchedulingPolicy::kRoundRobinNode,
                              sim::SchedulingPolicy::kRoundRobinProcessor,
                              sim::SchedulingPolicy::kRandom}) {
      const auto placement =
          sim::make_placement(policy, cluster, trace.num_tasks());
      for (const flowsim::RateProvider* provider :
           {static_cast<const flowsim::RateProvider*>(&fluid),
            static_cast<const flowsim::RateProvider*>(&network_model)}) {
        SCOPED_TRACE(std::string(short_name(tech)) + " " +
                     sim::to_string(policy) + " " +
                     (provider == &fluid ? "fluid" : "model"));
        ++cases;
        sim::EngineConfig cfg;
        const sim::SimResult plain =
            sim::run_simulation(trace, cluster, placement, *provider, cfg);
        EXPECT_EQ(plain.comms.size(), trace.total_sends());
        cfg.verify = true;
        try {
          const sim::SimResult verified = sim::run_simulation(
              trace, cluster, placement, *provider, cfg);
          EXPECT_TRUE(sim::bit_identical(plain, verified));
        } catch (const std::exception& e) {
          ADD_FAILURE() << "verify replay threw: " << e.what();
        }
      }
    }
  }
  EXPECT_EQ(cases, 18);
}

}  // namespace
}  // namespace bwshare::hpl
