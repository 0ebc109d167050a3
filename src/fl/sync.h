// Baseline 1: fully synchronous FedAvg (Syn. FL).
//
// Every device — stragglers included — trains the full model each cycle and
// the server waits for the slowest one, so the cycle time is dominated by
// the worst straggler (the Fig. 1 problem).
#pragma once

#include "fl/sync_round.h"
#include "util/rng.h"

namespace helios::fl {

class SyncFL final : public SyncRoundStrategy {
 public:
  /// `participation` in (0, 1]: the fraction of clients sampled uniformly
  /// at random each cycle (classic FedAvg partial participation; 1.0 = all
  /// devices every cycle). At least one client of a non-empty cohort
  /// participates.
  explicit SyncFL(double participation = 1.0, std::uint64_t seed = 17);

  std::string name() const override;

  /// Cross-cycle state is the participation-sampling RNG position.
  void io(Fleet& /*fleet*/, CheckpointArchive& ar) override { ar.io(rng_); }

 private:
  void begin_run(Fleet& fleet) override;
  /// Subsamples the round roster by `participation`.
  std::vector<PlannedClient> plan(Fleet& fleet, int cycle) override;

  double participation_;
  std::uint64_t seed_;
  util::Rng rng_{0};  ///< reseeded from seed_ when a run starts at cycle 0
};

}  // namespace helios::fl
