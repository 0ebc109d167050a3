// Baselines 4 & 5: submodel training without Helios' contribution-aware
// rotation.
//
// RandomSubmodel (Caldas et al. [12]): every cycle each straggler trains a
// fresh uniformly random submodel at its expected volume. Synchronous
// aggregation; per-neuron averaging without heterogeneity weights.
//
// StaticPrune (Jiang et al. [14] style): each straggler trains a submodel
// chosen once and kept forever — the "permanent model structure loss" the
// paper argues against; pruned neurons never rejoin training.
#pragma once

#include <map>

#include "fl/sync_round.h"
#include "util/rng.h"

namespace helios::fl {

class RandomSubmodel final : public SyncRoundStrategy {
 public:
  explicit RandomSubmodel(std::uint64_t seed = 99);
  std::string name() const override { return "Random"; }

  /// Cross-cycle state: each straggler's mask-drawing RNG position.
  void io(Fleet& fleet, CheckpointArchive& ar) override;

 private:
  void begin_run(Fleet& fleet) override;
  std::vector<PlannedClient> plan(Fleet& fleet, int cycle) override;

  std::uint64_t seed_;
  /// Per-straggler mask RNG, forked by id when first planned (ordered map:
  /// checkpoint serialization must not depend on hash iteration order).
  std::map<int, util::Rng> client_rng_;
};

class StaticPrune final : public SyncRoundStrategy {
 public:
  explicit StaticPrune(std::uint64_t seed = 99);
  std::string name() const override { return "Static Prune"; }

  /// Cross-cycle state: the once-drawn permanent mask per straggler.
  void io(Fleet& fleet, CheckpointArchive& ar) override;

 private:
  void begin_run(Fleet& fleet) override;
  std::vector<PlannedClient> plan(Fleet& fleet, int cycle) override;

  std::uint64_t seed_;
  std::map<int, std::vector<std::uint8_t>> fixed_;
};

}  // namespace helios::fl
