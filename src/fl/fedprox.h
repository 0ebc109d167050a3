// Extension baseline: FedProx (Li et al., MLSys 2020) — the standard
// straggler-tolerant alternative to submodel training. Every device trains
// the FULL model with a proximal term mu/2 ||w - w_global||^2 anchoring it
// to the global model, and weak devices simply do LESS local work per cycle
// (fewer mini-batches), so the synchronous round runs at the capable pace.
//
// Contrast with Helios: FedProx shrinks the *work*, Helios shrinks the
// *model*. FedProx stragglers still see every parameter each cycle but take
// fewer optimization steps; Helios stragglers take full local epochs on a
// rotating submodel.
#pragma once

#include "fl/sync_round.h"

namespace helios::fl {

class FedProx final : public SyncRoundStrategy {
 public:
  /// `mu` is the proximal coefficient. Stragglers' per-cycle work fraction
  /// is their volume (set by target determination), floored at
  /// `min_work`.
  explicit FedProx(float mu = 0.01F, double min_work = 0.05);

  std::string name() const override { return "FedProx"; }

 private:
  /// Installs mu into every planned client (joiners included) and scales
  /// each straggler's local work by its volume. No cross-cycle strategy
  /// state: mu travels with the per-client checkpoint section.
  std::vector<PlannedClient> plan(Fleet& fleet, int cycle) override;

  float mu_;
  double min_work_;
};

}  // namespace helios::fl
