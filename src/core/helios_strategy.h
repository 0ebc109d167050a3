// The full Helios orchestration (paper Secs. III-VI): synchronous
// aggregation where every straggler trains a soft-training submodel at its
// expected volume, with contribution tracking, rotation regulation,
// heterogeneity-weighted aggregation (Eq. 10) and first-cycles pace
// adaptation of the volumes.
//
// Ablation switches reproduce the paper's "S.T. Only" variant
// (hetero_aggregation = false) and support rotation / pace studies.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "core/rotation.h"
#include "core/soft_training.h"
#include "fl/sync_round.h"

namespace helios::core {

struct HeliosConfig {
  /// P_s — top-contribution share of the kept budget (Sec. VI-A: 0.05-0.1).
  double ps = 0.1;
  /// Sec. VI-B aggregation optimization: participant-aware per-neuron
  /// merging plus Eq. 10 volume weights. Off = the paper's "S.T. Only"
  /// ablation, which merges partial models naively (stale parameters of
  /// skipped neurons dilute the aggregate).
  bool hetero_aggregation = true;
  /// Damping d of the Eq. 10 weight, alpha_n = (1-d) + d*r_n (see
  /// fl::AggOptions::alpha_damping); 1.0 is the literal paper formula.
  double alpha_damping = 0.25;
  /// Rotation regulation (Sec. VI-A); off only for ablation studies.
  bool rotation_regulation = true;
  /// Number of initial cycles during which straggler volumes are adapted to
  /// the collaboration pace (Sec. V-A, Step 1).
  int pace_adaptation_cycles = 3;
  /// Hard floor for adapted volumes.
  double min_volume = 0.05;
  std::uint64_t seed = 31;
};

class HeliosStrategy final : public fl::SyncRoundStrategy {
 public:
  explicit HeliosStrategy(HeliosConfig config = {});

  std::string name() const override;

  /// Cross-cycle soft-training state, per straggler: keep ratio, per-neuron
  /// contributions U^ij, the mask-drawing RNG position, and the C_s
  /// rotation counters. Serialized sorted by client id.
  void io(fl::Fleet& fleet, fl::CheckpointArchive& ar) override;

  /// Invoked at the start of every cycle — used by the scalability example
  /// to admit devices mid-collaboration. Soft-training state for new
  /// stragglers is created lazily.
  void set_cycle_hook(std::function<void(fl::Fleet&, int)> hook);

  const HeliosConfig& config() const { return config_; }

 private:
  struct StragglerState {
    std::unique_ptr<SoftTrainer> trainer;
    std::unique_ptr<RotationRegulator> regulator;
  };
  StragglerState& state_for(fl::Client& client);

  void begin_run(fl::Fleet& fleet) override;
  /// Runs the cycle hook, then selects each straggler's soft-training
  /// submodel (rotation-forced neurons included).
  std::vector<fl::PlannedClient> plan(fl::Fleet& fleet, int cycle) override;
  /// Contribution updates (from the updates Server::aggregate received),
  /// C_s rotation bookkeeping and pace adaptation.
  void after_aggregate(fl::Fleet& fleet, const fl::SyncRound& round) override;

  HeliosConfig config_;
  /// One neuron geometry for every straggler's trainer, built on the first
  /// state_for of a run (the fleet has one architecture). Trainers co-own
  /// it, so it outlives them whatever happens to the fleet.
  std::shared_ptr<const NeuronGeometry> geometry_;
  std::unordered_map<int, StragglerState> state_;
  std::function<void(fl::Fleet&, int)> cycle_hook_;
  /// Rotation-forced neuron count per plan entry of the current round.
  std::vector<int> forced_;
};

}  // namespace helios::core
