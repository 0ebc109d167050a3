#include "fl/metrics.h"

#include <algorithm>

#include "util/stats.h"

namespace helios::fl {

double RunResult::final_accuracy(std::size_t tail) const {
  if (rounds.empty()) return 0.0;
  const std::size_t take = std::min(tail == 0 ? std::size_t{1} : tail,
                                    rounds.size());
  double s = 0.0;
  for (std::size_t i = rounds.size() - take; i < rounds.size(); ++i) {
    s += rounds[i].test_accuracy;
  }
  return s / static_cast<double>(take);
}

std::size_t RunResult::cycles_to_accuracy(double target) const {
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (rounds[i].test_accuracy >= target) return i;
  }
  return npos;
}

double RunResult::time_to_accuracy(double target) const {
  const std::size_t i = cycles_to_accuracy(target);
  return i == npos ? never : rounds[i].virtual_time;
}

double RunResult::total_upload_mb() const {
  double s = 0.0;
  for (const RoundRecord& r : rounds) s += r.upload_mb;
  return s;
}

double RunResult::accuracy_variance(std::size_t tail) const {
  if (rounds.size() < 2) return 0.0;
  const std::size_t take = std::min(tail < 2 ? std::size_t{2} : tail,
                                    rounds.size());
  util::RunningStats stats;
  for (std::size_t i = rounds.size() - take; i < rounds.size(); ++i) {
    stats.add(rounds[i].test_accuracy);
  }
  return stats.variance();
}

}  // namespace helios::fl
