// Client-side error-feedback accumulators for quantized uploads.
//
// Quantization drops the sub-grid part of every update; error feedback
// carries that dropped part forward instead of losing it. Before encoding,
// a client adds its carried residual to the update delta; after encoding it
// stores the new residual
//
//   residual' = compensated_delta - dequant(quant(compensated_delta))
//
// so the quantization error of round t is re-submitted in round t+1 and the
// long-run average of what the server sees converges to the uncompressed
// updates (the EF-SGD line of work the compression extensions follow).
//
// The bank keys residuals by client id in an ordered map, so iteration —
// and therefore checkpoint serialization — is deterministic. Entries only
// exist for clients that have shipped a quantized frame; a residual is
// full-parameter-length but only the entries the client actually shipped
// ever become non-zero (unshipped neurons carry their residual forward
// untouched). The bank is one checkpoint section (io), which the fl layer's
// NetworkSession registers so crash/resume restores every residual
// bit-identically.
#pragma once

#include <cstddef>
#include <map>
#include <span>
#include <vector>

#include "util/checkpoint_archive.h"

namespace helios::codec {

class ErrorFeedback {
 public:
  bool empty() const { return residuals_.empty(); }
  std::size_t clients() const { return residuals_.size(); }

  /// The client's residual vector, created zero-filled at `param_count` on
  /// first use. Throws CodecError if an existing residual has a different
  /// length (the bank outlived an architecture change).
  std::vector<float>& residual(int client_id, std::size_t param_count);

  /// The client's residual, or nullptr if it never shipped quantized.
  const std::vector<float>* find(int client_id) const;

  /// L2 norm of the client's carried residual (0 when absent) — the
  /// telemetry gauge's value.
  double l2_norm(int client_id) const;
  /// The same norm of a residual already in hand.
  static double l2_norm(std::span<const float> residual);

  /// Ordered view of every residual.
  const std::map<int, std::vector<float>>& all() const { return residuals_; }

  /// Checkpoint section: every residual by client id. A restore refuses a
  /// residual whose length is not `param_count`.
  void io(util::CheckpointArchive& ar, std::size_t param_count);

  void clear() { residuals_.clear(); }

 private:
  std::map<int, std::vector<float>> residuals_;
};

}  // namespace helios::codec
