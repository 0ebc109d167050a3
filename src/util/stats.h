// Small statistics helpers shared by the FL metrics recorder and the
// benchmark harness (running moments, means, percentiles).
#pragma once

#include <cstddef>
#include <span>

namespace helios::util {

/// Streaming mean / variance / extrema via Welford's algorithm.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Population variance (0 when fewer than two samples).
  double variance() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Mean of a series; 0 for an empty series.
double mean(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 100]. Requires non-empty input.
double percentile(std::span<const double> xs, double q);

}  // namespace helios::util
