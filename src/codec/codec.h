// Payload codecs for the wire format: fp32, fp16 and per-neuron scaled int8
// encodings of a float value stream.
//
// The layer sits between tensor and net: it knows nothing about frames,
// models or masks — callers hand it a flat value stream where each value is
// tagged with a dense *group* id (the wire layer derives groups from the
// model layout: one group per owning neuron plus a common group), and the
// int8 codec quantizes each group against its own scale.
//
// The sender quantizes each value exactly once (quantize()): that one pass
// yields the value's code, the value the receiver will rebuild and the
// packed payload size, and pack() serializes its result.
//
// Determinism contract (the reason every rounding rule is spelled out):
// encode -> decode is an exact function of the inputs on every platform the
// project targets, so the sender can predict the receiver's dequantized
// values bit-for-bit — which is what the error-feedback accumulators and
// the crash/resume bit-identity tests rely on.
//
//   * fp32 — raw IEEE754 bits, lossless (NaN/Inf included).
//   * fp16 — software IEEE754 binary16 conversion, round-to-nearest-even,
//     saturating at +-65504 (no F16C / hardware dependence).
//   * int8pn — per-group scale s = fp16(max|v| / 127) (the scale itself is
//     stored and applied as the fp16-rounded value, so both sides use the
//     identical grid); q = clamp(lround(v / s), -127, +127) evaluated in
//     double (half-away-from-zero, the C standard's lround); dequantized
//     value = float(q * s) in double arithmetic. q = 0 whenever s == 0
//     (an all-zero group, or one whose max|v| / 127 underflows fp16).
//
// The packed stream is whole little-endian bytes: 4 per fp32 value, 2 per
// fp16 value, 1 per int8 value. int8 payloads ride a zero-run escape: the
// byte 0x80 (never a valid q — the clamp is symmetric) followed by a u8 run
// length encodes a run of >= 3 zero values, so the frequent exact-zero
// deltas of a training update compress without any expansion in the worst
// case.
//
// The lossy codecs reject NaN/Inf inputs with CodecError — a quantized
// frame must never launder a non-finite value into the aggregation path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace helios::codec {

/// Malformed codec input: NaN/Inf payloads, unknown codec ids, truncated or
/// oversized packed streams.
class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Registry of payload codecs. Fixed ids — they appear in wire frames. Id 2
/// (a retired per-tensor int8 codec) stays unassigned.
enum class CodecId : std::uint32_t {
  kFp32 = 0,           // raw IEEE754 bits, lossless
  kFp16 = 1,           // binary16, round-to-nearest-even
  kInt8PerNeuron = 3,  // one scale per owning neuron (+ the common group)
};

struct CodecInfo {
  CodecId id = CodecId::kFp32;
  const char* name = "";
  /// Packed payload bits per value (before zero-run coding).
  unsigned value_bits = 32;
  /// int8 against per-group fp16 scales, with zero-run escape coding.
  bool scaled = false;
};

/// Codec metadata; throws CodecError for an unknown id.
const CodecInfo& codec_info(CodecId id);
/// True when `raw` names a codec.
bool codec_known(std::uint32_t raw);
/// Short name for reports ("fp32", "fp16", "int8pn").
const char* codec_name(CodecId id);

// ---- fp16 ------------------------------------------------------------------

/// float -> binary16 bits, round-to-nearest-even, saturating at +-65504.
std::uint16_t fp16_from_float(float v);
/// binary16 bits -> float (exact).
float fp16_to_float(std::uint16_t h);

// ---- Group-scaled quantization ---------------------------------------------

/// The per-group scales of one encoded payload. For unscaled codecs
/// (fp32/fp16) the scale list is empty.
struct QuantPlan {
  CodecId id = CodecId::kFp32;
  /// Per dense-group fp16 scale bit patterns, group 0 first. The fp16 bits
  /// are the canonical form — they are what crosses the wire.
  std::vector<std::uint16_t> scale_bits;
};

/// A value stream quantized once: its plan and, per value, the code that
/// crosses the wire and the value the decoder rebuilds from it. The packed
/// payload, its size and the sender-side mirror the error-feedback
/// accumulators difference against all read this one result.
struct Quantized {
  QuantPlan plan;
  /// Per value, exactly what decode_values returns for it: the value
  /// itself (fp32), its fp16 round trip (fp16), or q * s (int8pn).
  std::vector<float> values;
  /// int8pn only: per value, its code q in [-127, 127].
  std::vector<std::int8_t> codes;
  /// Exact size of the payload pack() writes (zero-run coded for int8pn).
  std::size_t packed_bytes = 0;
};

/// Quantizes a tagged value stream in one pass over it (int8pn makes one
/// more, for the per-group max |v|): values[i] belongs to dense group
/// groups[i] (an empty `groups` span means all values are group 0), and
/// `group_count` sizes the scale list of the scaled codec. `values` is
/// consumed and becomes Quantized::values. The lossy codecs reject NaN/Inf
/// values, and int8pn values of an unknown group, with CodecError.
Quantized quantize(CodecId id, std::vector<float> values,
                   std::span<const std::uint32_t> groups,
                   std::size_t group_count);

/// Appends the packed payload of `q` to `out` — the int8pn codes with
/// zero-run coding, the fp16 bits of its values (re-converting an fp16
/// value is exact) or their fp32 bits; returns the number of bytes
/// appended.
std::size_t pack(const Quantized& q, std::vector<std::uint8_t>& out);

/// Decodes exactly `count` values, consuming all of `payload` (throws
/// CodecError on a short or oversized stream).
std::vector<float> decode_values(const QuantPlan& plan,
                                 std::span<const std::uint8_t> payload,
                                 std::span<const std::uint32_t> groups,
                                 std::size_t count);

}  // namespace helios::codec
