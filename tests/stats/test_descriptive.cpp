#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace bwshare::stats {
namespace {

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, EmptyIsSafe) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(Accumulator, MeanIsTheRunningUpdateBitForBit) {
  // Every penalty average the estimators and reports print goes through
  // this update: m += (x - m) / n, never a sum divided at the end.
  Rng rng(5);
  Accumulator acc;
  double m = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    const double x = rng.normal() * 3.0 + 1.0;
    acc.add(x);
    const double delta = x - m;
    m += delta / static_cast<double>(i);
    ASSERT_EQ(acc.mean(), m) << "sample " << i;
  }
}

TEST(Descriptive, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Descriptive, MedianAndPercentiles) {
  const std::vector<double> xs{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 2.0);
}

TEST(Descriptive, PercentileInterpolates) {
  const std::vector<double> xs{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 75.0), 7.5);
}

TEST(Descriptive, PercentileValidation) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW((void)percentile({}, 50.0), Error);
  EXPECT_THROW((void)percentile(xs, -1.0), Error);
  EXPECT_THROW((void)percentile(xs, 101.0), Error);
}

TEST(Descriptive, MeanAbs) {
  // Signed errors of a series symmetric about zero cancel in the mean, which
  // is why E_abs averages magnitudes (eval::mean_absolute_error).
  const std::vector<double> xs{-2.0, 2.0, -4.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 0.0);
}

}  // namespace
}  // namespace bwshare::stats
