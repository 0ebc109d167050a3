// Extension: top-k update sparsification (in the spirit of the gradient
// compression line the paper builds on — Alistarh et al. [18], Wangni et
// al. [19], Lin et al. [20]).
//
// The client uploads only the k largest-magnitude entries of its update
// delta (trained parameters minus the global snapshot it started from);
// the remaining entries are reverted to the snapshot value, so the server
// sees a sparse-delta update through the unchanged aggregation path. This
// composes with soft-training: Helios shrinks *what trains*, compression
// shrinks *what ships*.
#pragma once

#include <cstddef>
#include <span>

#include "fl/sync_round.h"

namespace helios::fl {

struct CompressionStats {
  std::size_t total_entries = 0;  // delta entries eligible for upload
  std::size_t kept_entries = 0;   // entries actually shipped
  /// L2 norm of the dropped delta relative to the full delta (0 = lossless).
  double relative_error = 0.0;
};

/// Sparsifies `update` in place: keeps the `keep_fraction` largest |delta|
/// entries relative to `base` (the global parameters the client trained
/// from), reverts the rest to `base`, and rescales upload_mb /
/// upload_seconds by the kept fraction. keep_fraction in (0, 1]; 1 is a
/// no-op. Buffers are never compressed. Reverted entries equal the base,
/// so the wire encoder's sparse frame skips them and the frame shrinks with
/// the kept fraction.
CompressionStats compress_update_topk(ClientUpdate& update,
                                      std::span<const float> base,
                                      double keep_fraction);

/// Synchronous FedAvg with per-client top-k compression — the comparison
/// harness for accuracy-vs-communication sweeps. No cross-cycle strategy
/// state — inherits the no-op checkpoint hooks.
class CompressedSyncFL final : public SyncRoundStrategy {
 public:
  explicit CompressedSyncFL(double keep_fraction);
  std::string name() const override;

 private:
  /// Sparsifies each update against the round's global snapshot.
  void post_train(const Fleet& fleet, ClientUpdate& update,
                  std::span<const float> base) const override;

  double keep_fraction_;
};

}  // namespace helios::fl
