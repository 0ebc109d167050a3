// Wire format for federated submodel updates.
//
// A ClientUpdate crosses the simulated network as one binary frame: a fixed
// header, an optional packed per-neuron bitmask, a payload carrying only the
// parameters the client actually trained, the full non-learnable buffer
// vector, and a CRC32 trailer. A P_i-shrunk straggler upload is therefore
// proportionally smaller *on the wire*, and the exact frame byte count — not
// the analytic M/B_n estimate — can drive upload_seconds and the virtual
// clock.
//
// The payload values ship under a codec (src/codec): fp32 (raw bits,
// lossless), fp16, or int8 against per-neuron fp16 scales. The lossy codecs
// are *delta-coded* whenever the encoder holds the base snapshot (flag bit
// 2): the shipped value is params - base and the decoder adds it back,
// which keeps the quantization grid centered on the update. fp32 always
// ships absolute values.
//
// Two payload encodings exist; the encoder picks whichever is smaller:
//   * dense  — the values of every shipped index (active-neuron slices plus
//     the common, non-neuron-owned parameters), in flat order;
//   * sparse — only the shipped entries the decoder cannot take from the
//     base snapshot: the flat index list, then those values. Top-k-compressed
//     updates revert dropped entries to the base, so this encoding makes the
//     frame size track the kept fraction. It needs the base.
//
// Frame layout (all integers little-endian, floats as little-endian IEEE754
// bit patterns):
//
//   offset  size  field
//        0     4  magic "HWF1"
//        4     2  version (= 2)
//        6     2  flags (bit 0: neuron mask present; bit 1: sparse payload;
//                 bit 2: delta-coded values)
//        8     4  client_id (i32)
//       12     4  neuron_total (mask bit count; 0 when no mask)
//       16     8  param_count  (full flat parameter count, validated)
//       24     8  buffer_count
//       32     8  payload_count (shipped values)
//       40     8  sample_count
//       48     8  mean_loss (f64)
//       56     4  codec id (codec::CodecId)
//       60     4  payload_bytes (packed payload size)
//       64     -  mask bytes, ceil(neuron_total / 8), LSB-first (if bit 0)
//        -     -  sparse only: payload_count u32 flat indices, ascending
//        -     -  scale_count fp16 scale bit patterns (int8pn; 2 B each)
//        -     -  packed payload values (payload_bytes; see codec/codec.h)
//        -     -  buffers (4 B each, never quantized)
//        -     4  CRC32 (IEEE 802.3) over every preceding byte
//
// scale_count is not stored: both sides derive the group list — one group
// per owning neuron plus the common group — from the layout and mask
// (dense) or the index list (sparse), so a frame cannot smuggle mismatched
// scales past validation. Groups are numbered in ascending neuron id with
// the common group last, read off a neuron-indexed rank table in
// O(values + neurons). The encoder quantizes each shipped value once and
// builds the dense size, the sparse candidate, the payload and the
// dequantized mirror from that one result (see codec/codec.h).
//
// Decoding validates magic, version, CRC, codec, counts and exact frame
// length, and throws WireError on any mismatch (corruption, truncation, or
// a frame built for a different architecture).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "nn/model.h"

namespace helios::net {

/// Malformed / corrupted / mismatched frame.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kWireMagic = 0x31465748U;  // "HWF1"
inline constexpr std::uint16_t kWireVersion = 2;
inline constexpr std::size_t kHeaderBytes = 64;
inline constexpr std::size_t kTrailerBytes = 4;  // CRC32

enum WireFlags : std::uint16_t {
  kFlagHasMask = 1U << 0,
  kFlagSparse = 1U << 1,
  /// Payload values are deltas against the base snapshot (lossy codecs).
  kFlagDelta = 1U << 2,
};

/// Static description of a model's flat layout, shared by encoder and
/// decoder (both sides build it from the same ModelSpec-built model).
struct WireLayout {
  std::size_t param_count = 0;
  std::size_t buffer_count = 0;
  int neuron_total = 0;
  /// Per flat parameter index: owning global neuron id (below
  /// neuron_total), or kCommonParam for parameters no neuron owns (e.g. the
  /// classifier head) — those ship with every frame.
  std::vector<std::uint32_t> neuron_of;

  static constexpr std::uint32_t kCommonParam = 0xFFFFFFFFU;
};

/// Builds the layout from a finalized model (the server's reference model).
WireLayout make_wire_layout(nn::Model& model);

/// True when flat index `f` ships under `mask` (empty = full model): common
/// parameters always do, neuron-owned ones when their neuron is active.
inline bool entry_shipped(const WireLayout& layout,
                          std::span<const std::uint8_t> mask, std::size_t f) {
  const std::uint32_t n = layout.neuron_of[f];
  return mask.empty() || n == WireLayout::kCommonParam || mask[n] != 0;
}

/// Encoder input: what one upload carries. Spans alias caller storage.
struct WireMessage {
  std::int32_t client_id = -1;
  std::uint64_t sample_count = 0;
  double mean_loss = 0.0;
  std::span<const float> params;              // full flat vector
  std::span<const float> buffers;             // full buffer vector
  std::span<const std::uint8_t> neuron_mask;  // empty = full model
};

/// Decoder output; `params` is the reconstructed *full* flat vector
/// (unshipped entries filled from the base snapshot).
struct DecodedMessage {
  std::int32_t client_id = -1;
  std::uint64_t sample_count = 0;
  double mean_loss = 0.0;
  std::vector<float> params;
  std::vector<float> buffers;
  std::vector<std::uint8_t> neuron_mask;  // unpacked to 0/1; empty = full
};

/// Packed mask size: ceil(neuron_total / 8); 0 for an empty mask.
std::size_t mask_wire_bytes(int neuron_total);

/// Number of floats a dense frame ships under `mask` (empty = all).
std::size_t dense_payload_count(const WireLayout& layout,
                                std::span<const std::uint8_t> mask);

/// Exact size of the dense fp32 frame of an update under `mask` — the
/// codec telemetry's uncompressed reference.
std::size_t dense_frame_bytes(const WireLayout& layout,
                              std::span<const std::uint8_t> mask);

/// What an encode actually shipped — the sender-side mirror the
/// error-feedback accumulators and the codec telemetry need.
struct CodecResult {
  bool sparse = false;
  /// The full flat parameter vector exactly as decode_frame will
  /// reconstruct it (base + dequantized delta; unshipped entries = base).
  /// Empty for kFp32, which is lossless.
  std::vector<float> dequantized;
};

/// Encodes `msg` under `codec` as whichever of the dense and sparse frames
/// is smaller. `base` is the global snapshot the client trained from; an
/// empty `base` means a dense frame of absolute values. `result`, when
/// non-null, receives the chosen encoding and the receiver's exact
/// dequantized view. Throws codec::CodecError on NaN/Inf values under a
/// lossy codec.
std::vector<std::uint8_t> encode_frame_auto(const WireMessage& msg,
                                            std::span<const float> base,
                                            const WireLayout& layout,
                                            codec::CodecId codec,
                                            CodecResult* result = nullptr);

/// Decodes and validates a frame. `base_params` supplies the values of
/// unshipped entries and the base of delta-coded ones; it must have
/// layout.param_count entries whenever the frame is masked, sparse or
/// delta-coded (it may be empty for a full dense frame of absolute values).
DecodedMessage decode_frame(std::span<const std::uint8_t> frame,
                            const WireLayout& layout,
                            std::span<const float> base_params);

/// CRC32 (IEEE 802.3, reflected 0xEDB88320) of `bytes`. On CPUs with
/// PCLMULQDQ, buffers of 64 B or more fold 16 B blocks by carry-less
/// multiplication and leave the tail under 16 B to the slicing-by-4 tables;
/// elsewhere the tables take everything. Both give the same value.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// The same CRC32 by the slicing-by-4 tables alone, whatever the CPU: the
/// oracle the folding path is tested against.
std::uint32_t crc32_table(std::span<const std::uint8_t> bytes);

}  // namespace helios::net
