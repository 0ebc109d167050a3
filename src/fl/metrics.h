// Experiment metrics: per-cycle records and convergence summaries.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <vector>

namespace helios::fl {

/// One aggregation cycle of the capable devices.
struct RoundRecord {
  int cycle = 0;
  /// Virtual seconds elapsed since the start of the run.
  double virtual_time = 0.0;
  double test_accuracy = 0.0;
  double mean_train_loss = 0.0;
  /// Total parameter upload volume of this cycle (MB, all participants).
  double upload_mb = 0.0;
};

struct RunResult {
  std::string method;
  std::vector<RoundRecord> rounds;

  /// Mean accuracy over the last `tail` recorded cycles.
  double final_accuracy(std::size_t tail = 3) const;

  /// First cycle index reaching `target` accuracy; npos if never.
  std::size_t cycles_to_accuracy(double target) const;

  /// Virtual time at which `target` accuracy is first reached; +inf if never.
  double time_to_accuracy(double target) const;

  /// Population variance of accuracy over the last `tail` cycles — the
  /// "fluctuation" metric of the Fig. 6 ablation.
  double accuracy_variance(std::size_t tail = 10) const;

  /// Total communication volume across all recorded cycles (MB).
  double total_upload_mb() const;

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  static constexpr double never = std::numeric_limits<double>::infinity();
};

}  // namespace helios::fl
