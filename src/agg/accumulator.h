// Streaming constant-memory aggregation.
//
// A StreamingAccumulator holds the weighted parameter sums (acc), the
// per-parameter weight mass (den) and the buffer sums of everything folded
// into it so far. An aggregator node decodes one frame, folds it, and
// discards it — memory is O(model), independent of how many devices fold.
//
// The fold replicates fl::Server::aggregate's arithmetic operation for
// operation (same allowed-mask construction, same accumulation order, same
// double-precision sums, same final float cast), so a single accumulator
// folding a round's updates in input order finalizes bit-identically to the
// pre-tree server loop.
//
// merge() adds a child accumulator's sums into a parent — exactly the
// associativity the tree relies on: fold(A ++ B) and merge(fold(A), fold(B))
// compute the same mathematical sums (identical up to floating-point
// summation order; exactly identical when the parent was empty, since
// 0 + x == x in IEEE arithmetic). Because den travels with acc ("weight-
// carrying"), dropping a late child and finalizing renormalizes over the
// remaining weight mass exactly — no re-weighting pass is needed.
//
// encode_frame serializes an accumulator into the merge frame that crosses a
// tier uplink: the header and the f64 arrays are copied word for word (raw
// IEEE bits, little-endian hosts only), and a CRC32 guards the payload like
// the device wire format does. A parent takes a frame with merge_frame,
// which adds the frame's sums straight into its own, in merge()'s order,
// once the whole frame has passed every check — no decoded accumulator is
// built. decode_frame runs the same checks and copies the sums into a new
// accumulator, bit-exact (a -0.0 stays -0.0); merge(decode_frame(f)) and
// merge_frame(f) leave the parent with the same bits.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/model.h"

namespace helios::agg {

/// Shared aggregation geometry derived from the reference model: which flat
/// parameters belong to some neuron, and each neuron's flat slices.
struct ModelGeometry {
  std::size_t param_count = 0;
  std::size_t buffer_count = 0;
  int neuron_total = 0;
  /// 1 where the flat parameter belongs to some neuron, 0 for common
  /// parameters (e.g. the classifier head).
  std::vector<std::uint8_t> neuron_owned;
  /// Per-neuron flat slices (copied from the model's neuron index).
  std::vector<nn::NeuronInfo> neurons;
};

ModelGeometry make_geometry(nn::Model& model);

/// A borrowed view of one client update — the agg layer's decoupling from
/// fl::ClientUpdate (agg sits below fl).
struct UpdateView {
  int client_id = -1;
  std::span<const float> params;
  std::span<const float> buffers;
  /// Per-neuron trained flags (empty = full model trained).
  std::span<const std::uint8_t> trained_mask;
};

/// The two weights Server::aggregate computes per update: `common` applies
/// to non-neuron parameters and buffers, `neuron` to neuron-owned
/// parameters (Eq. 10 volume weighting included).
struct FoldWeights {
  double common = 1.0;
  double neuron = 1.0;
};

/// Per-neuron mean absolute parameter change between `before` and `after`,
/// restricted to the neurons set in `mask` (others stay 0). This is the
/// U^ij contribution statistic of core::SoftTrainer::update_contributions,
/// extracted so edge aggregators can compute a device's contribution shard
/// with bit-identical arithmetic (same slice order, same double sums).
std::vector<double> neuron_change_means(
    std::span<const nn::NeuronInfo> neurons, std::span<const float> before,
    std::span<const float> after, std::span<const std::uint8_t> mask);

class StreamingAccumulator {
 public:
  StreamingAccumulator() = default;
  /// `geometry` is shared and must outlive the accumulator.
  explicit StreamingAccumulator(const ModelGeometry* geometry);

  void reset();
  bool empty() const { return folded_ == 0; }
  /// Updates folded into this accumulator, children included.
  std::uint64_t folded() const { return folded_; }

  /// Folds one update: params accumulate under the allowed mask (common
  /// params always; neuron-owned params only when the neuron trained, or
  /// everywhere when `per_neuron_merge` is off), buffers accumulate under
  /// the common weight. Mirrors Server::aggregate bit for bit.
  void fold(const UpdateView& u, const FoldWeights& w, bool per_neuron_merge);

  /// Adds a child's sums (same geometry) into this accumulator.
  void merge(const StreamingAccumulator& child);

  /// Writes the weighted means into `global` / `buffers`; indices no folded
  /// update was allowed to write (den == 0) keep their previous values.
  void finalize(std::span<float> global, std::span<float> buffers) const;

  // -- Merge frames ---------------------------------------------------------

  /// Frame size in bytes for an accumulator of this geometry (fixed: the
  /// weight-carrying payload is dense regardless of how many devices fed
  /// it).
  static std::size_t frame_bytes(const ModelGeometry& geometry);
  /// Serializes the sums into a weight-carrying merge frame.
  std::vector<std::uint8_t> encode_frame() const;
  /// Decodes a merge frame (geometry must match; CRC checked; at least one
  /// update folded) bit-identically to the encoded accumulator. Throws
  /// net::WireError on a bad frame.
  static StreamingAccumulator decode_frame(std::span<const std::uint8_t> frame,
                                           const ModelGeometry* geometry);
  /// Adds a merge frame's sums into this accumulator: the same bits as
  /// merge(decode_frame(frame, geometry)), without the decoded copy. Runs
  /// decode_frame's checks first, and refuses a folded count that would
  /// overflow this one's; a bad frame throws net::WireError and leaves this
  /// accumulator untouched.
  void merge_frame(std::span<const std::uint8_t> frame);

  // Raw sums — exposed for tests and checkpointing.
  const std::vector<double>& acc() const { return acc_; }
  const std::vector<double>& den() const { return den_; }
  const std::vector<double>& buffer_acc() const { return bacc_; }
  double buffer_den() const { return bden_; }

 private:
  const ModelGeometry* geo_ = nullptr;
  std::vector<double> acc_;   // sum of w * param, per flat index
  std::vector<double> den_;   // sum of w, per flat index
  std::vector<double> bacc_;  // sum of common_w * buffer
  double bden_ = 0.0;         // sum of common_w
  std::uint64_t folded_ = 0;
  std::vector<std::uint8_t> allowed_;  // per-fold scratch
};

}  // namespace helios::agg
