// Descriptive statistics: an online mean/min/max accumulator plus batch
// helpers on spans of doubles. Used for model parameter estimation
// (averaging penalties over conflict sweeps) and for experiment reporting.
#pragma once

#include <cstddef>
#include <span>

namespace bwshare::stats {

/// Online count/mean/min/max accumulator; the mean is updated in place
/// (Welford's running-mean step), never as a sum divided at the end.
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

[[nodiscard]] double mean(std::span<const double> xs);
[[nodiscard]] double median(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 100].
[[nodiscard]] double percentile(std::span<const double> xs, double q);

}  // namespace bwshare::stats
