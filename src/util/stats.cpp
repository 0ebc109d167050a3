#include "util/stats.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace helios::util {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double percentile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  if (q < 0.0 || q > 100.0) throw std::invalid_argument("percentile: q out of range");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace helios::util
