#include "stats/descriptive.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"

namespace bwshare::stats {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
}

double Accumulator::mean() const { return count_ == 0 ? 0.0 : mean_; }

double Accumulator::min() const { return min_; }
double Accumulator::max() const { return max_; }

double mean(std::span<const double> xs) {
  Accumulator acc;
  for (double x : xs) acc.add(x);
  return acc.mean();
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double q) {
  BWS_CHECK(!xs.empty(), "percentile of empty series");
  BWS_CHECK(q >= 0.0 && q <= 100.0, "percentile q must be in [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace bwshare::stats
