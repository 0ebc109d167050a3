// Soft-training neuron selection (paper Sec. V).
//
// Per straggler, per cycle, the submodel is the union of
//   * the top P_s fraction of the layer budget by collaboration
//     contribution U^ij — the neurons whose parameters changed most in the
//     cycles they last trained (Eq. 1, primary convergence guarantee), and
//   * a uniformly random draw from the remaining neurons (Eq. 2, rotation
//     for model integrity),
// with any rotation-regulation "overdue" neurons force-included first
// (Sec. VI-A), keeping every selection probability p_i > 0 as the
// convergence proof (Proposition 2) requires.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fl/submodel.h"
#include "nn/model.h"
#include "util/checkpoint_archive.h"
#include "util/rng.h"

namespace helios::core {

struct SoftTrainerConfig {
  /// Expected model volume P (keep ratio per layer).
  double keep_ratio = 0.5;
  /// P_s — fraction of the kept budget reserved for top-contribution
  /// neurons; the paper recommends 0.05-0.1 of the full layer (we apply it
  /// to the kept budget, clamped to at least one neuron).
  double ps = 0.1;
  std::uint64_t seed = 1;
};

/// The neuron geometry soft training reads: per-layer neuron ranges and
/// each neuron's flat parameter slices. It depends on the architecture
/// alone, so one copy serves every trainer of a fleet (HeliosStrategy
/// shares one across its stragglers).
struct NeuronGeometry {
  explicit NeuronGeometry(nn::Model& model);

  std::vector<fl::LayerNeuronRange> ranges;
  std::vector<nn::NeuronInfo> neurons;
};

class SoftTrainer {
 public:
  /// The trainer keeps per-neuron contribution state across cycles over a
  /// shared, immutable `geometry`.
  SoftTrainer(std::shared_ptr<const NeuronGeometry> geometry,
              SoftTrainerConfig config);
  /// A trainer with its own copy of `model`'s geometry.
  SoftTrainer(nn::Model& model, SoftTrainerConfig config);

  /// Chooses the next cycle's submodel mask. `forced` lists global neuron
  /// ids that must be included (rotation regulation); they count against the
  /// layer budget but may overflow it if the regulator demands more than
  /// the budget allows.
  std::vector<std::uint8_t> select_mask(std::span<const int> forced = {});

  /// Updates contributions after a cycle: U_j <- mean |after - before| over
  /// neuron j's parameters, for the neurons that trained (others retain
  /// their previous U).
  void update_contributions(std::span<const float> before,
                            std::span<const float> after,
                            std::span<const std::uint8_t> trained_mask);

  const std::vector<double>& contributions() const { return u_; }
  double keep_ratio() const { return config_.keep_ratio; }
  /// Pace adaptation can adjust the volume between cycles.
  void set_keep_ratio(double p);
  int neuron_total() const { return static_cast<int>(u_.size()); }
  /// Total per-cycle budget sum(P_i n_i) at the current volume.
  int budget_total() const;

  /// Checkpoint section: the cross-cycle state is the keep ratio, the
  /// contributions (finite, one per neuron: select_mask sorts by them) and
  /// the RNG position. The geometry depends on the architecture alone and
  /// is rebuilt, not checkpointed.
  void io(util::CheckpointArchive& ar);

 private:
  SoftTrainerConfig config_;
  std::shared_ptr<const NeuronGeometry> geometry_;
  std::vector<double> u_;  // U^ij per global neuron
  util::Rng rng_;
};

}  // namespace helios::core
