// Property/fuzz tests for the descriptive-statistics layer: seeded random
// series checked against closed-form references. These are the primitives
// the campaign verdicts ultimately reduce to, so they get the same
// adversarial treatment as the simulator cores (sim/test_engine_fuzz.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace bwshare::stats {
namespace {

std::vector<double> random_series(uint64_t seed, size_t n, double lo,
                                  double hi) {
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (size_t i = 0; i < n; ++i) xs.push_back(rng.uniform(lo, hi));
  return xs;
}

// Naive two-pass references the online accumulator must agree with.
double ref_mean(const std::vector<double>& xs) {
  double s = 0.0;
  for (const double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

TEST(StatsFuzz, AccumulatorMatchesBatchReferencesOnRandomSeries) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const size_t n = 2 + rng.below(500);
    const auto xs = random_series(seed * 977, n, -1e3, 1e3);
    Accumulator acc;
    for (const double x : xs) acc.add(x);
    ASSERT_EQ(acc.count(), xs.size());
    EXPECT_NEAR(acc.mean(), ref_mean(xs), 1e-9) << "seed " << seed;
    EXPECT_DOUBLE_EQ(acc.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(acc.max(), *std::max_element(xs.begin(), xs.end()));
    // The batch helper sees the same data, so it must agree too.
    EXPECT_EQ(mean(xs), acc.mean());
  }
}

}  // namespace
}  // namespace bwshare::stats
