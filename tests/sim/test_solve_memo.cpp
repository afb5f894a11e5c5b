// sim::SolveMemo, the per-replay memo of component rate solves: which tier
// answers a lookup (the frozen cross-query store first, then this replay's
// own staged entries), what it counts, and that a replay whose solves are
// answered from staged entries stays bit-identical to one without a memo.
#include "sim/solve_memo.hpp"

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/result_expect.hpp"
#include "flowsim/fluid_network.hpp"
#include "sim/engine.hpp"

namespace bwshare::sim {
namespace {

/// A frozen store over a fixed map that counts the lookups it serves.
class CountingStore final : public SolveStore {
 public:
  explicit CountingStore(std::map<uint64_t, std::vector<double>> entries)
      : entries_(std::move(entries)) {}

  bool lookup(uint64_t key, std::vector<double>& rates) const override {
    ++lookups_;
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    rates = it->second;
    return true;
  }

  [[nodiscard]] size_t lookups() const { return lookups_; }

 private:
  std::map<uint64_t, std::vector<double>> entries_;
  mutable size_t lookups_ = 0;
};

TEST(SolveMemo, StagedEntryAnswersALaterLookup) {
  SolveMemo memo;
  std::vector<double> rates;
  bool from_frozen = true;
  EXPECT_FALSE(memo.lookup(7, rates, from_frozen));
  memo.stage(7, {1.5, 2.5});
  rates.clear();
  EXPECT_TRUE(memo.lookup(7, rates, from_frozen));
  EXPECT_FALSE(from_frozen);
  EXPECT_EQ(rates, (std::vector<double>{1.5, 2.5}));
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.staged_hits(), 1u);
  EXPECT_EQ(memo.frozen_hits(), 0u);
}

TEST(SolveMemo, StageKeepsTheFirstSolutionOfAKey) {
  SolveMemo memo;
  memo.stage(9, {1.0});
  memo.stage(9, {2.0});
  memo.stage(4, {3.0, 4.0});
  ASSERT_EQ(memo.staged().size(), 2u);
  EXPECT_EQ(memo.staged().at(9), (std::vector<double>{1.0}));
  // Publication order is by key, not by staging order.
  EXPECT_EQ(memo.staged().begin()->first, 4u);
}

TEST(SolveMemo, FrozenStoreAnswersBeforeStagedEntries) {
  std::map<uint64_t, std::vector<double>> frozen;
  frozen[7] = {9.0};
  const CountingStore store(std::move(frozen));
  SolveMemo memo(&store, /*salt=*/3);
  EXPECT_EQ(memo.salt(), 3u);
  EXPECT_FALSE(memo.verify());
  memo.stage(7, {1.0});
  memo.stage(8, {2.0});

  std::vector<double> rates;
  bool from_frozen = false;
  EXPECT_TRUE(memo.lookup(7, rates, from_frozen));
  EXPECT_TRUE(from_frozen);
  EXPECT_EQ(rates, (std::vector<double>{9.0}));
  EXPECT_TRUE(memo.lookup(8, rates, from_frozen));
  EXPECT_FALSE(from_frozen);
  EXPECT_EQ(rates, (std::vector<double>{2.0}));
  EXPECT_FALSE(memo.lookup(5, rates, from_frozen));

  EXPECT_EQ(store.lookups(), 3u);  // every lookup asks the store first
  EXPECT_EQ(memo.frozen_hits(), 1u);
  EXPECT_EQ(memo.staged_hits(), 1u);
  EXPECT_EQ(memo.misses(), 1u);
}

TEST(SolveMemo, RepeatedSubproblemInOneReplayHitsItsStagedEntry) {
  // Task 0 sends task 1 the same 4 MB message twice in a row. The second
  // transfer's component is the first one's again (same nodes, same bytes
  // remaining), so the entry the first solve staged answers the second.
  AppTrace trace(2);
  for (int i = 0; i < 2; ++i) {
    trace.push(0, Event::send(1, 4e6));
    trace.push(1, Event::recv(0, 4e6));
  }
  const auto cluster = topo::ClusterSpec::uniform(
      "memo", 2, 1, topo::gigabit_ethernet_calibration());
  const Placement placement({0, 1});
  const flowsim::FluidRateProvider provider(cluster.network());
  const SimResult plain = run_simulation(trace, cluster, placement, provider);

  // A verifying memo re-solves each hit and throws on a diverging bit.
  for (const bool verify : {false, true}) {
    SCOPED_TRACE(verify);
    SolveMemo memo(nullptr, 0, verify);
    EngineConfig cfg;
    cfg.solve_memo = &memo;
    const SimResult memoized =
        run_simulation(trace, cluster, placement, provider, cfg);
    expect_bit_identical(plain, memoized);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.staged_hits(), 1u);
    EXPECT_EQ(memo.frozen_hits(), 0u);
    EXPECT_EQ(memo.staged().size(), 1u);
  }
}

}  // namespace
}  // namespace bwshare::sim
