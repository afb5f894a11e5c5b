// Property/fuzz tests for the descriptive-statistics layer: seeded random
// series checked against closed-form references. These are the primitives
// the campaign verdicts ultimately reduce to, so they get the same
// adversarial treatment as the simulator cores (sim/test_engine_fuzz.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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

double ref_variance(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = ref_mean(xs);
  double s = 0.0;
  for (const double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
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
    EXPECT_NEAR(acc.variance(), ref_variance(xs),
                1e-6 * std::max(1.0, ref_variance(xs)))
        << "seed " << seed;
    EXPECT_DOUBLE_EQ(acc.stddev(), std::sqrt(acc.variance()));
    EXPECT_DOUBLE_EQ(acc.min(), *std::min_element(xs.begin(), xs.end()));
    EXPECT_DOUBLE_EQ(acc.max(), *std::max_element(xs.begin(), xs.end()));
    EXPECT_NEAR(acc.sum(), ref_mean(xs) * static_cast<double>(n),
                1e-6 * std::max(1.0, std::fabs(acc.sum())));
    // Batch helpers see the same data, so they must agree too.
    EXPECT_NEAR(mean(xs), acc.mean(), 1e-9);
    EXPECT_NEAR(variance(xs), acc.variance(),
                1e-6 * std::max(1.0, acc.variance()));
  }
}

TEST(StatsFuzz, AccumulatorMergeOfSplitsEqualsTheWhole) {
  // merge() is how parallel reductions combine per-thread accumulators:
  // any split point must reproduce the single-pass result.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 31);
    const size_t n = 2 + rng.below(300);
    const size_t cut = 1 + rng.below(n - 1);
    const auto xs = random_series(seed * 131, n, -50.0, 200.0);
    Accumulator whole;
    for (const double x : xs) whole.add(x);
    Accumulator left;
    Accumulator right;
    for (size_t i = 0; i < cut; ++i) left.add(xs[i]);
    for (size_t i = cut; i < n; ++i) right.add(xs[i]);
    left.merge(right);
    ASSERT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), whole.variance(),
                1e-6 * std::max(1.0, whole.variance()));
    EXPECT_DOUBLE_EQ(left.min(), whole.min());
    EXPECT_DOUBLE_EQ(left.max(), whole.max());
    // Merging an empty accumulator is the identity, both ways.
    Accumulator empty;
    Accumulator copy = whole;
    copy.merge(empty);
    EXPECT_EQ(copy.count(), whole.count());
    EXPECT_DOUBLE_EQ(copy.mean(), whole.mean());
    empty.merge(whole);
    EXPECT_EQ(empty.count(), whole.count());
    EXPECT_DOUBLE_EQ(empty.mean(), whole.mean());
  }
}

}  // namespace
}  // namespace bwshare::stats
