// Concurrent replays: eval::Sweep cells and serve::QueryService queries run
// many engines at once through util::parallel_for, all sharing one const
// RateProvider, while each thread keeps its own solve scratch and arena.
// Every replay must stay bit-identical to the same replay run alone on the
// calling thread — no arithmetic may depend on which thread ran it, on what
// that thread solved before, or on what ran beside it. Exercised over the
// shared churn fuzz (barrier-heavy batching) under the fluid and
// myrinet-model providers, and every generator family under the fluid,
// gige-model and myrinet-model providers, at 1, 2 and 8 threads, plus
// EngineConfig::verify replays (whose whole-set re-solves run through the
// same per-thread scratch) and per-replay SolveMemos over a shared frozen
// store. This suite is the TSan CI target for concurrent engines: any data
// race between replays sharing a provider surfaces here.
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine_fuzz_util.hpp"
#include "flowsim/fluid_network.hpp"
#include "graph/generator.hpp"
#include "models/registry.hpp"
#include "sim/engine.hpp"
#include "sim/rate_model.hpp"
#include "sim/schedule.hpp"
#include "sim/solve_memo.hpp"
#include "topo/cluster.hpp"
#include "util/rng.hpp"
#include "util/parallel.hpp"

namespace bwshare::sim {
namespace {

/// Replays of one workload launched per batch; more than the largest
/// thread count, so threads run several replays back to back on warm
/// scratch.
constexpr int kReplays = 10;

/// `n` replays of one workload fanned out on `threads` threads, each into
/// its own slot — the sweep's pattern.
std::vector<SimResult> replay_concurrently(
    int threads, int n, const AppTrace& trace,
    const topo::ClusterSpec& cluster, const Placement& placement,
    const flowsim::RateProvider& provider, const EngineConfig& cfg) {
  std::vector<SimResult> results(static_cast<size_t>(n));
  util::parallel_for(threads, n, [&](int i) {
    results[static_cast<size_t>(i)] =
        run_simulation(trace, cluster, placement, provider, cfg);
  });
  return results;
}

/// The concurrency contract: a serial replay on this thread, then batches
/// of concurrent replays sharing `provider` at 1, 2 and 8 threads
/// — every one bit-identical to the serial replay — then a batch of verify
/// replays, which must not throw and must match too.
void check_concurrent_matches_serial(const AppTrace& trace,
                                     const topo::ClusterSpec& cluster,
                                     const Placement& placement,
                                     const flowsim::RateProvider& provider) {
  EngineConfig cfg;
  const SimResult serial =
      run_simulation(trace, cluster, placement, provider, cfg);
  for (const int threads : {1, 2, 8}) {
    for (const auto& result : replay_concurrently(
             threads, kReplays, trace, cluster, placement, provider, cfg))
      expect_bit_identical(serial, result);
  }
  cfg.verify = true;
  std::vector<SimResult> verified;
  ASSERT_NO_THROW(verified = replay_concurrently(2, 4, trace, cluster,
                                                 placement, provider, cfg));
  for (const auto& result : verified) expect_bit_identical(serial, result);
}

// --- staggered churn fuzz --------------------------------------------------

class ConcurrentChurnFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ConcurrentChurnFuzz, ConcurrentReplaysAreBitIdenticalToSerial) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 500009 + 13);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace = churn_trace(static_cast<uint64_t>(GetParam()), tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster = topo::ClusterSpec::uniform(
      "concfuzz", (tasks + 1) / 2, 2, topo::gigabit_ethernet_calibration());
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const flowsim::FluidRateProvider provider(cluster.network());
  check_concurrent_matches_serial(trace, cluster, placement, provider);
}

TEST_P(ConcurrentChurnFuzz, MyrinetModelReplaysMatchSerial) {
  // The Myrinet model on two tasks per node: concurrent replays enumerate
  // state sets over conflict graphs that mix intra-node copies with network
  // flows, through their threads' scratch.
  Rng rng(static_cast<uint64_t>(GetParam()) * 500009 + 901);
  const int tasks = 5 + static_cast<int>(rng.below(5));
  const auto trace =
      churn_trace(static_cast<uint64_t>(GetParam()) + 900, tasks);
  ASSERT_NO_THROW(trace.validate());
  const auto cal = topo::myrinet2000_calibration();
  const auto cluster =
      topo::ClusterSpec::uniform("concmyri", (tasks + 1) / 2, 2, cal);
  const auto placement =
      make_placement(SchedulingPolicy::kRandom, cluster, tasks, rng());
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  check_concurrent_matches_serial(trace, cluster, placement, provider);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentChurnFuzz, ::testing::Range(0, 8));

// --- generator families x providers ----------------------------------------

void check_scheme_concurrent(const graph::CommGraph& scheme,
                             const flowsim::RateProvider& provider,
                             const topo::NetworkCalibration& cal) {
  const auto trace = trace_from_scheme(scheme);
  ASSERT_NO_THROW(trace.validate());
  const auto cluster =
      topo::ClusterSpec::uniform("concequiv", scheme.num_nodes(), 1, cal);
  check_concurrent_matches_serial(trace, cluster,
                                  identity_placement(scheme.num_nodes()),
                                  provider);
}

class ConcurrentGeneratedSchemes : public ::testing::TestWithParam<SpecSeed> {};

TEST_P(ConcurrentGeneratedSchemes, FluidProviderMatchesSerial) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const flowsim::FluidRateProvider provider(cal);
  check_scheme_concurrent(scheme, provider, cal);
}

TEST_P(ConcurrentGeneratedSchemes, GigeModelProviderMatchesSerial) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::gigabit_ethernet_calibration();
  const ModelRateProvider provider(models::make_model("gige"), cal);
  check_scheme_concurrent(scheme, provider, cal);
}

TEST_P(ConcurrentGeneratedSchemes, MyrinetModelProviderMatchesSerial) {
  const auto spec = graph::parse_generator_spec(std::get<0>(GetParam()));
  const auto scheme = graph::generate_scheme(spec, std::get<1>(GetParam()));
  const auto cal = topo::myrinet2000_calibration();
  const ModelRateProvider provider(models::make_model("myrinet"), cal);
  check_scheme_concurrent(scheme, provider, cal);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, ConcurrentGeneratedSchemes,
                         ::testing::Combine(all_family_specs(),
                                            ::testing::Values(1u, 2u)),
                         spec_seed_name);

// --- mixed workloads, concurrent callers, memos ---------------------------

/// One replayable workload with its own provider.
struct Workload {
  AppTrace trace;
  topo::ClusterSpec cluster;
  Placement placement;
  std::unique_ptr<flowsim::RateProvider> provider;
  SimResult serial;
};

/// Churn traces of different sizes under the fluid provider on one and on
/// two tasks per node, and under the gige-model and myrinet-model
/// providers, each with its serial replay.
std::vector<Workload> mixed_workloads() {
  std::vector<Workload> out;
  const auto gige = topo::gigabit_ethernet_calibration();
  const auto myri = topo::myrinet2000_calibration();
  for (int k = 0; k < 4; ++k) {
    const int tasks = 6 + 2 * k;
    const auto cal = k == 3 ? myri : gige;
    // Workload 1 packs two tasks per node (RRP fills each node's cores in
    // turn), so its intra-node copies share each node's shm engine.
    const int cores = k == 1 ? 2 : 1;
    const auto cluster =
        topo::ClusterSpec::uniform("concmix", tasks / cores, cores, cal);
    Workload w{churn_trace(static_cast<uint64_t>(k) + 4242, tasks), cluster,
               make_placement(SchedulingPolicy::kRoundRobinProcessor, cluster,
                              tasks),
               nullptr, {}};
    if (k <= 1) {
      w.provider = std::make_unique<flowsim::FluidRateProvider>(cal);
    } else {
      w.provider = std::make_unique<ModelRateProvider>(
          models::make_model(k == 2 ? "gige" : "myrinet"), cal);
    }
    w.serial = run_simulation(w.trace, w.cluster, w.placement, *w.provider);
    out.push_back(std::move(w));
  }
  return out;
}

TEST(ConcurrentReplays, DistinctWorkloadsShareWorkersWithoutCrosstalk) {
  // Round-robin over the workloads, so each thread's scratch is reused
  // across problems of different sizes and provider kinds, with other
  // workloads solving beside it.
  const auto workloads = mixed_workloads();
  const int n = 6 * static_cast<int>(workloads.size());
  std::vector<SimResult> results(static_cast<size_t>(n));
  util::parallel_for(3, n, [&](int i) {
    const auto& w = workloads[static_cast<size_t>(i) % workloads.size()];
    results[static_cast<size_t>(i)] =
        run_simulation(w.trace, w.cluster, w.placement, *w.provider);
  });
  for (int i = 0; i < n; ++i)
    expect_bit_identical(
        workloads[static_cast<size_t>(i) % workloads.size()].serial,
        results[static_cast<size_t>(i)]);
}

TEST(ConcurrentReplays, ConcurrentClientsGetIdenticalReplays) {
  // Several client threads fan their batches out at the same time, each
  // through its own parallel_for and so its own threads; each client waits
  // only for its own batch and every replay matches its serial twin.
  const auto workloads = mixed_workloads();
  constexpr int kPerClient = 5;
  std::vector<std::vector<SimResult>> per_client(workloads.size());
  std::vector<std::thread> clients;
  for (size_t c = 0; c < workloads.size(); ++c) {
    clients.emplace_back([&, c] {
      const auto& w = workloads[c];
      per_client[c] = replay_concurrently(4, kPerClient, w.trace,
                                          w.cluster, w.placement,
                                          *w.provider, EngineConfig{});
    });
  }
  for (auto& t : clients) t.join();
  for (size_t c = 0; c < workloads.size(); ++c) {
    ASSERT_EQ(per_client[c].size(), static_cast<size_t>(kPerClient));
    for (const auto& result : per_client[c])
      expect_bit_identical(workloads[c].serial, result);
  }
}

/// Read-only frozen store built from one memo's staged solutions.
class MapStore : public SolveStore {
 public:
  explicit MapStore(std::map<uint64_t, std::vector<double>> entries)
      : entries_(std::move(entries)) {}
  bool lookup(uint64_t key, std::vector<double>& rates) const override {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    rates = it->second;
    return true;
  }

 private:
  std::map<uint64_t, std::vector<double>> entries_;
};

/// Concurrent replays of `w`, each driving its own SolveMemo over `frozen`;
/// the memos are read only after the batch joins.
std::vector<std::unique_ptr<SolveMemo>> memo_replays(
    int threads, const Workload& w, const SolveStore* frozen,
    std::vector<SimResult>& results) {
  std::vector<std::unique_ptr<SolveMemo>> memos;
  for (int i = 0; i < kReplays; ++i)
    memos.push_back(std::make_unique<SolveMemo>(frozen));
  results.assign(static_cast<size_t>(kReplays), SimResult{});
  util::parallel_for(threads, kReplays, [&](int i) {
    EngineConfig cfg;
    cfg.solve_memo = memos[static_cast<size_t>(i)].get();
    results[static_cast<size_t>(i)] =
        run_simulation(w.trace, w.cluster, w.placement, *w.provider, cfg);
  });
  return memos;
}

TEST(ConcurrentReplays, PrivateMemosRecordIdenticallyUnderConcurrency) {
  // A memo belongs to one replay thread; concurrent replays, each with its
  // own memo, must replay bit-identically to a memo-less run and record
  // the same solve sequence: equal counters and equal staged solutions.
  const auto workloads = mixed_workloads();
  for (const auto& w : workloads) {
    std::vector<SimResult> results;
    const auto memos = memo_replays(4, w, nullptr, results);
    for (const auto& result : results) expect_bit_identical(w.serial, result);
    const SolveMemo& first = *memos.front();
    EXPECT_GT(first.misses(), 0u);
    EXPECT_EQ(first.frozen_hits(), 0u);
    for (const auto& memo : memos) {
      EXPECT_EQ(memo->misses(), first.misses());
      EXPECT_EQ(memo->staged_hits(), first.staged_hits());
      EXPECT_EQ(memo->frozen_hits(), 0u);
      EXPECT_EQ(memo->staged(), first.staged());
    }
  }
}

TEST(ConcurrentReplays, SharedFrozenStoreWarmStartsConcurrentReplays) {
  // One replay's staged solutions, frozen into a read-only store shared by
  // every concurrent replay: each replay answers every component solve
  // from the store (no misses, nothing staged) and still matches the
  // memo-less replay bit for bit.
  const auto workloads = mixed_workloads();
  for (const auto& w : workloads) {
    SolveMemo recorder;
    EngineConfig cfg;
    cfg.solve_memo = &recorder;
    expect_bit_identical(
        w.serial,
        run_simulation(w.trace, w.cluster, w.placement, *w.provider, cfg));
    const size_t lookups = recorder.misses() + recorder.staged_hits();
    ASSERT_GT(lookups, 0u);
    const MapStore frozen(recorder.staged());

    std::vector<SimResult> results;
    const auto memos = memo_replays(4, w, &frozen, results);
    for (const auto& result : results) expect_bit_identical(w.serial, result);
    for (const auto& memo : memos) {
      EXPECT_EQ(memo->frozen_hits(), lookups);
      EXPECT_EQ(memo->misses(), 0u);
      EXPECT_EQ(memo->staged_hits(), 0u);
      EXPECT_TRUE(memo->staged().empty());
    }
  }
}

}  // namespace
}  // namespace bwshare::sim
