// Neuron-rotation regulation (paper Sec. VI-A).
//
// The server records, per straggler, how many aggregation cycles each neuron
// has been skipped (C_s). When C_s exceeds the threshold
//     1 + m / sum(P_i n_i)
// the neuron is reported "overdue" and the straggler must pull it back into
// the next training cycle — this keeps every selection probability p_i
// strictly positive, the condition the convergence proof (Proposition 2)
// rests on, and prevents stale-parameter buildup.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/checkpoint_archive.h"

namespace helios::core {

class RotationRegulator {
 public:
  /// `neuron_total` is m; `budget_total` is sum(P_i n_i) for this straggler.
  RotationRegulator(int neuron_total, int budget_total);

  /// Threshold 1 + m / sum(P_i n_i), in whole skipped cycles.
  double threshold() const { return threshold_; }

  /// Records one aggregation cycle's trained mask (empty = all trained):
  /// trained neurons reset to 0, skipped neurons age by 1.
  void record_cycle(std::span<const std::uint8_t> trained_mask);

  /// Neurons whose skipped-cycle count has reached the threshold.
  std::vector<int> overdue() const;

  /// Budget changes (pace adaptation) re-derive the threshold.
  void set_budget_total(int budget_total);

  int skipped_cycles(int neuron) const;

  int neuron_total() const { return static_cast<int>(skipped_.size()); }

  /// Checkpoint section: C_s is the whole cross-cycle state (the threshold
  /// is derived from the budget, which the caller re-applies on restore).
  void io(util::CheckpointArchive& ar);

 private:
  std::vector<int> skipped_;
  double threshold_ = 0.0;
};

}  // namespace helios::core
