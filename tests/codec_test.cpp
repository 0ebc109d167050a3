// Wire codec subsystem: codec-layer round trips (property-style fuzz over
// shapes, scales and degenerate masks), NaN/Inf rejection, the zero-run
// escape coding's edges, frame truncation/corruption refusal, the one
// frame format's version and codec rules, pinned frame bytes, merge-frame
// refusal of a non-zero codec word, fleet-level integration:
// error-feedback compensation, wire-byte savings and thread-count
// determinism with a quantized payload codec, and the int8pn acceptance
// floor on the network benchmark's codec sweep.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "agg/accumulator.h"
#include "codec/codec.h"
#include "codec/error_feedback.h"
#include "core/helios_strategy.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "models/zoo.h"
#include "net/wire.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

using codec::CodecId;

// ---- fp16 ------------------------------------------------------------------

TEST(Fp16Test, ExactValuesRoundTrip) {
  const float exact[] = {0.0F, 1.0F, -1.0F, 0.5F, 2.0F, 1024.0F, -65504.0F,
                         0.0009765625F /* 2^-10 */};
  for (float v : exact) {
    EXPECT_EQ(codec::fp16_to_float(codec::fp16_from_float(v)), v) << v;
  }
}

TEST(Fp16Test, SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(codec::fp16_to_float(codec::fp16_from_float(1e9F)), 65504.0F);
  EXPECT_EQ(codec::fp16_to_float(codec::fp16_from_float(-1e9F)), -65504.0F);
  EXPECT_EQ(codec::fp16_to_float(codec::fp16_from_float(65520.0F)), 65504.0F);
}

TEST(Fp16Test, RoundsToNearestEven) {
  // 2049 sits exactly between representable 2048 and 2050 -> ties to 2048
  // (even significand); 2051 between 2050 and 2052 -> 2052.
  EXPECT_EQ(codec::fp16_to_float(codec::fp16_from_float(2049.0F)), 2048.0F);
  EXPECT_EQ(codec::fp16_to_float(codec::fp16_from_float(2051.0F)), 2052.0F);
}

TEST(Fp16Test, ConversionIsIdempotent) {
  util::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const float v = static_cast<float>(rng.normal() * 50.0);
    const float once = codec::fp16_to_float(codec::fp16_from_float(v));
    const float twice = codec::fp16_to_float(codec::fp16_from_float(once));
    EXPECT_EQ(once, twice) << v;
  }
}

TEST(Fp16Test, EveryFiniteHalfReconvertsExactly) {
  // pack() writes an fp16 value by converting its decoded float back, so
  // the round trip must be the identity on every finite half (±0 and the
  // subnormals included).
  for (std::uint32_t h = 0; h <= 0xFFFF; ++h) {
    if (((h >> 10) & 0x1F) == 0x1F) continue;  // Inf/NaN: never emitted
    const auto bits = static_cast<std::uint16_t>(h);
    EXPECT_EQ(codec::fp16_from_float(codec::fp16_to_float(bits)), bits)
        << std::hex << h;
  }
}

// ---- Codec-layer round trips ----------------------------------------------

/// Quantize -> pack -> decode round trip under `id`; checks the packed size
/// prediction, the decode, and the sender-side dequantized mirror.
void expect_codec_roundtrip(CodecId id, const std::vector<float>& values,
                            const std::vector<std::uint32_t>& groups,
                            std::size_t group_count) {
  const codec::Quantized q =
      codec::quantize(id, values, groups, group_count);
  std::vector<std::uint8_t> payload;
  const std::size_t n = codec::pack(q, payload);
  ASSERT_EQ(n, payload.size());
  EXPECT_EQ(n, q.packed_bytes);

  const std::vector<float> decoded =
      codec::decode_values(q.plan, payload, groups, values.size());
  ASSERT_EQ(decoded.size(), values.size());
  ASSERT_EQ(q.values.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i], q.values[i]) << "sender/receiver mismatch at " << i;
    // Quantization error bound: half a grid step (int8), or fp16 relative
    // precision; fp32 is exact.
    if (id == CodecId::kFp32) {
      EXPECT_EQ(decoded[i], values[i]);
    } else if (id == CodecId::kFp16) {
      // Relative fp16 precision, after the documented saturation clamp.
      const float sat = std::clamp(values[i], -65504.0F, 65504.0F);
      EXPECT_NEAR(decoded[i], sat, std::abs(sat) * 1e-3 + 1e-4);
    } else {
      // Half a grid step; the absolute term covers groups whose fp16 scale
      // underflowed to 0 (max |v| < 127 * fp16-min, everything -> q = 0).
      const float s = codec::fp16_to_float(
          q.plan.scale_bits[groups.empty() ? 0 : groups[i]]);
      EXPECT_NEAR(decoded[i], values[i], s * 0.5F + 4e-6F) << "index " << i;
    }
  }
}

std::vector<std::uint32_t> random_groups(std::size_t count,
                                         std::size_t group_count,
                                         util::Rng& rng) {
  std::vector<std::uint32_t> g(count);
  for (auto& x : g) {
    x = static_cast<std::uint32_t>(
        rng.uniform_int(static_cast<int>(group_count)));
  }
  return g;
}

TEST(CodecTest, FuzzRoundTripsAcrossShapesAndScales) {
  util::Rng rng(41);
  // int8pn runs with one group (a whole-tensor scale) and with many.
  const std::pair<CodecId, bool> configs[] = {
      {CodecId::kFp32, false},
      {CodecId::kFp16, false},
      {CodecId::kInt8PerNeuron, false},
      {CodecId::kInt8PerNeuron, true},
  };
  const std::size_t sizes[] = {1, 2, 7, 64, 257, 1000};
  const double scales[] = {1e-6, 0.01, 1.0, 100.0, 30000.0};
  for (const auto& [id, grouped] : configs) {
    for (std::size_t n : sizes) {
      for (double sc : scales) {
        std::vector<float> values(n);
        for (auto& v : values) v = static_cast<float>(rng.normal() * sc);
        // Sprinkle exact zeros to exercise the run coding.
        for (auto& v : values) {
          if (rng.uniform() < 0.3) v = 0.0F;
        }
        const std::size_t group_count = grouped ? 1 + n / 7 : 1;
        const std::vector<std::uint32_t> groups =
            grouped ? random_groups(n, group_count, rng)
                    : std::vector<std::uint32_t>{};
        expect_codec_roundtrip(id, values, groups, group_count);
      }
    }
  }
}

TEST(CodecTest, Int8RoundsHalfAwayFromZeroAndClamps) {
  // max |v| = 127 gives s = fp16(1.0) = 1 exactly, so v / s = v.
  const float below_half = std::nextafter(0.5F, 0.0F);
  const std::vector<float> values = {127.0F, 0.5F,   -0.5F, 1.5F,  2.5F,
                                     -2.5F,  126.5F, 0.25F, below_half};
  const codec::Quantized q =
      codec::quantize(CodecId::kInt8PerNeuron, values, {}, 1);
  ASSERT_EQ(codec::fp16_to_float(q.plan.scale_bits.at(0)), 1.0F);
  const std::vector<std::int8_t> want = {127, 1, -1, 2, 3, -3, 127, 0, 0};
  EXPECT_EQ(q.codes, want);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(q.values[i], static_cast<float>(want[i])) << i;
  }
  // A subnormal fp16 scale can sit a third below max |v| / 127: the max
  // lands past 127 steps and clamps.
  const float s = std::ldexp(1.0F, -24);  // the smallest fp16 subnormal
  const float max_abs = 127.0F * 1.49F * s;
  const codec::Quantized c =
      codec::quantize(CodecId::kInt8PerNeuron, {max_abs, -max_abs}, {}, 1);
  ASSERT_EQ(codec::fp16_to_float(c.plan.scale_bits.at(0)), s);
  EXPECT_EQ(c.codes, (std::vector<std::int8_t>{127, -127}));
  EXPECT_EQ(c.values[0], 127.0F * s);
}

TEST(CodecTest, AllZeroStreamCompressesAndRoundTrips) {
  const std::vector<float> zeros(500, 0.0F);
  const codec::Quantized q =
      codec::quantize(CodecId::kInt8PerNeuron, zeros, {}, 1);
  std::vector<std::uint8_t> payload;
  codec::pack(q, payload);
  // 500 zeros -> two escape+length pairs (runs cap at 255).
  EXPECT_LE(payload.size(), 4U);
  const std::vector<float> decoded =
      codec::decode_values(q.plan, payload, {}, zeros.size());
  for (float v : decoded) EXPECT_EQ(v, 0.0F);
}

TEST(CodecTest, ShortZeroRunsAreNotEscaped) {
  // Runs of 1-2 zeros stay literal bytes; the payload never expands.
  const std::vector<float> values = {1.0F, 0.0F, 0.0F, 1.0F, 0.0F, 1.0F};
  const codec::Quantized q =
      codec::quantize(CodecId::kInt8PerNeuron, values, {}, 1);
  std::vector<std::uint8_t> payload;
  codec::pack(q, payload);
  EXPECT_EQ(payload.size(), values.size());
  const std::vector<float> decoded =
      codec::decode_values(q.plan, payload, {}, values.size());
  EXPECT_EQ(decoded[1], 0.0F);
  EXPECT_EQ(decoded[4], 0.0F);
}

TEST(CodecTest, NeverExpandsBeyondOneBytePerValue) {
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> values(256);
    for (auto& v : values) {
      v = rng.uniform() < 0.5 ? 0.0F : static_cast<float>(rng.normal());
    }
    const codec::Quantized q =
        codec::quantize(CodecId::kInt8PerNeuron, values, {}, 1);
    std::vector<std::uint8_t> payload;
    codec::pack(q, payload);
    EXPECT_LE(payload.size(), values.size());
  }
}

TEST(CodecTest, RejectsNaNAndInf) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    std::vector<float> values = {1.0F, bad, 2.0F};
    EXPECT_THROW(codec::quantize(CodecId::kInt8PerNeuron, values, {}, 1),
                 codec::CodecError);
    EXPECT_THROW(codec::quantize(CodecId::kFp16, values, {}, 1),
                 codec::CodecError);
  }
}

TEST(CodecTest, DecodeRejectsTruncatedAndOversizedPayloads) {
  util::Rng rng(23);
  std::vector<float> values(64);
  for (auto& v : values) v = static_cast<float>(rng.normal());
  const codec::Quantized q =
      codec::quantize(CodecId::kInt8PerNeuron, values, {}, 1);
  std::vector<std::uint8_t> payload;
  codec::pack(q, payload);

  std::vector<std::uint8_t> shorter(payload.begin(), payload.end() - 1);
  EXPECT_THROW(codec::decode_values(q.plan, shorter, {}, values.size()),
               codec::CodecError);
  std::vector<std::uint8_t> longer = payload;
  longer.push_back(0x00);
  EXPECT_THROW(codec::decode_values(q.plan, longer, {}, values.size()),
               codec::CodecError);
}

TEST(CodecTest, DecodeRejectsCorruptZeroRun) {
  // An escape byte announcing a run that overruns the value count.
  const codec::QuantPlan plan =
      codec::quantize(CodecId::kInt8PerNeuron, {1.0F}, {}, 1).plan;
  const std::vector<std::uint8_t> bogus = {0x80, 0xFF};
  EXPECT_THROW(codec::decode_values(plan, bogus, {}, 4), codec::CodecError);
  // A run length below the escape threshold is malformed by construction.
  const std::vector<std::uint8_t> tiny_run = {0x80, 0x02, 0x01, 0x01};
  EXPECT_THROW(codec::decode_values(plan, tiny_run, {}, 4),
               codec::CodecError);
}

TEST(CodecTest, RegistryNamesAndIds) {
  EXPECT_STREQ(codec::codec_name(CodecId::kFp32), "fp32");
  EXPECT_STREQ(codec::codec_name(CodecId::kFp16), "fp16");
  EXPECT_STREQ(codec::codec_name(CodecId::kInt8PerNeuron), "int8pn");
  EXPECT_TRUE(codec::codec_known(0));
  EXPECT_TRUE(codec::codec_known(1));
  EXPECT_TRUE(codec::codec_known(3));
  // Id 2 (the retired per-tensor int8) and the retired dispatch-only id.
  EXPECT_FALSE(codec::codec_known(2));
  EXPECT_FALSE(codec::codec_known(4));
  EXPECT_FALSE(codec::codec_known(0xFFFFFFFFU));
  EXPECT_THROW(codec::codec_info(static_cast<CodecId>(2)), codec::CodecError);
}

// ---- Error-feedback accumulators ------------------------------------------

TEST(ErrorFeedbackTest, ResidualsAreLazilyZeroInitialized) {
  codec::ErrorFeedback ef;
  EXPECT_TRUE(ef.empty());
  EXPECT_EQ(ef.find(7), nullptr);
  std::vector<float>& r = ef.residual(7, 16);
  ASSERT_EQ(r.size(), 16U);
  for (float v : r) EXPECT_EQ(v, 0.0F);
  EXPECT_FALSE(ef.empty());
  EXPECT_NE(ef.find(7), nullptr);
  EXPECT_EQ(ef.l2_norm(3), 0.0);
}

TEST(ErrorFeedbackTest, NormAndClearAndAssign) {
  codec::ErrorFeedback ef;
  ef.residual(2, 2) = {3.0F, 4.0F};
  EXPECT_DOUBLE_EQ(ef.l2_norm(2), 5.0);
  EXPECT_THROW(ef.residual(2, 3), codec::CodecError);  // length mismatch
  ef.clear();
  EXPECT_TRUE(ef.empty());
}

// ---- Wire frames -----------------------------------------------------------

struct QuantWireFixture {
  nn::Model model;
  net::WireLayout layout;
  std::vector<float> base;
  std::vector<float> params;
  std::vector<float> buffers;

  explicit QuantWireFixture(std::uint64_t seed = 3)
      : model(models::mlp_spec({1, 8, 8, 4}, 24).build(seed)),
        layout(net::make_wire_layout(model)) {
    util::Rng rng(seed * 31 + 7);
    base.resize(layout.param_count);
    params.resize(layout.param_count);
    buffers.resize(layout.buffer_count);
    for (float& v : base) v = static_cast<float>(rng.normal());
    // Updates are small deltas off the base — the wire's delta coding and
    // the sparse candidate both key off this shape.
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] = base[i] + static_cast<float>(rng.normal() * 0.05);
    }
    for (float& v : buffers) v = static_cast<float>(rng.normal());
  }

  net::WireMessage message(std::span<const std::uint8_t> mask) const {
    net::WireMessage m;
    m.client_id = 42;
    m.sample_count = 1234;
    m.mean_loss = 0.625;
    m.params = params;
    m.buffers = buffers;
    m.neuron_mask = mask;
    return m;
  }

  void freeze_unmasked(std::span<const std::uint8_t> mask) {
    if (mask.empty()) return;
    for (std::size_t f = 0; f < layout.param_count; ++f) {
      const std::uint32_t n = layout.neuron_of[f];
      if (n != net::WireLayout::kCommonParam && mask[n] == 0) {
        params[f] = base[f];
      }
    }
  }
};

/// Decodes `frame` and checks it reconstructs exactly the encoder-predicted
/// view (CodecResult.dequantized; the update itself under fp32), with
/// unshipped entries at the base.
void expect_quant_roundtrip(const QuantWireFixture& fx, CodecId id,
                            std::span<const std::uint8_t> mask,
                            const std::vector<std::uint8_t>& frame,
                            const net::CodecResult& result) {
  const net::DecodedMessage d = net::decode_frame(frame, fx.layout, fx.base);
  EXPECT_EQ(d.client_id, 42);
  EXPECT_EQ(d.sample_count, 1234U);
  ASSERT_EQ(d.params.size(), fx.layout.param_count);
  if (id == CodecId::kFp32) {
    EXPECT_TRUE(result.dequantized.empty());
    EXPECT_TRUE(testing::bitwise_equal(d.params, fx.params));
  } else {
    EXPECT_TRUE(testing::bitwise_equal(d.params, result.dequantized))
        << "decoder disagrees with the encoder's dequantized mirror";
    // Unshipped entries are exactly the base.
    for (std::size_t f = 0; f < fx.layout.param_count; ++f) {
      if (!net::entry_shipped(fx.layout, mask, f)) {
        EXPECT_EQ(d.params[f], fx.base[f]) << "index " << f;
      }
    }
  }
  // Buffers are never quantized.
  EXPECT_TRUE(testing::bitwise_equal(d.buffers, fx.buffers));
}

TEST(QuantWireTest, QuantizedRoundTripsAcrossCodecsAndMasks) {
  QuantWireFixture fx;
  util::Rng rng(11);
  const CodecId ids[] = {CodecId::kFp32, CodecId::kFp16,
                         CodecId::kInt8PerNeuron};
  for (CodecId id : ids) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::uint8_t> mask(
          static_cast<std::size_t>(fx.layout.neuron_total));
      for (auto& b : mask) b = rng.uniform() < 0.6 ? 1 : 0;
      fx.freeze_unmasked(mask);
      net::CodecResult result;
      const auto frame = net::encode_frame_auto(fx.message(mask), fx.base,
                                                fx.layout, id, &result);
      expect_quant_roundtrip(fx, id, mask, frame, result);
    }
  }
}

TEST(QuantWireTest, DegenerateMasksRoundTrip) {
  const CodecId id = CodecId::kInt8PerNeuron;
  QuantWireFixture fx;
  const auto m = static_cast<std::size_t>(fx.layout.neuron_total);
  // All-zero mask: only common parameters ship.
  std::vector<std::uint8_t> none(m, 0);
  fx.freeze_unmasked(none);
  net::CodecResult result;
  auto frame = net::encode_frame_auto(fx.message(none), fx.base, fx.layout,
                                      id, &result);
  expect_quant_roundtrip(fx, id, none, frame, result);

  // Single-neuron mask.
  QuantWireFixture fx2(9);
  std::vector<std::uint8_t> one(m, 0);
  one[m / 2] = 1;
  fx2.freeze_unmasked(one);
  frame = net::encode_frame_auto(fx2.message(one), fx2.base, fx2.layout, id,
                                 &result);
  expect_quant_roundtrip(fx2, id, one, frame, result);

  // Full mask (all ones) == effectively dense.
  QuantWireFixture fx3(13);
  std::vector<std::uint8_t> all(m, 1);
  frame = net::encode_frame_auto(fx3.message(all), fx3.base, fx3.layout, id,
                                 &result);
  expect_quant_roundtrip(fx3, id, all, frame, result);
}

TEST(QuantWireTest, NoBaseDenseEncodingRoundTrips) {
  // Without a base snapshot values ship absolute, not delta-coded.
  QuantWireFixture fx;
  net::CodecResult result;
  const auto frame = net::encode_frame_auto(
      fx.message({}), {}, fx.layout, CodecId::kInt8PerNeuron, &result);
  EXPECT_EQ(frame[6] & net::kFlagDelta, 0);
  const net::DecodedMessage d = net::decode_frame(frame, fx.layout, {});
  EXPECT_TRUE(testing::bitwise_equal(d.params, result.dequantized));
}

TEST(QuantWireTest, QuantizedFramesAreSmaller) {
  QuantWireFixture fx;
  const auto fp32 = net::encode_frame_auto(fx.message({}), fx.base,
                                           fx.layout, CodecId::kFp32);
  const auto int8 = net::encode_frame_auto(fx.message({}), fx.base,
                                           fx.layout, CodecId::kInt8PerNeuron);
  const auto fp16 = net::encode_frame_auto(fx.message({}), fx.base,
                                           fx.layout, CodecId::kFp16);
  EXPECT_LT(fp16.size(), fp32.size());
  EXPECT_LT(int8.size(), fp16.size());
}

TEST(QuantWireTest, RejectsNonFinitePayloads) {
  QuantWireFixture fx;
  fx.params[3] = std::numeric_limits<float>::quiet_NaN();
  for (CodecId id : {CodecId::kFp16, CodecId::kInt8PerNeuron}) {
    EXPECT_THROW(
        net::encode_frame_auto(fx.message({}), fx.base, fx.layout, id),
        codec::CodecError);
  }
  // fp32 is lossless: the NaN bits ship like any other value.
  const auto frame = net::encode_frame_auto(fx.message({}), fx.base,
                                            fx.layout, CodecId::kFp32);
  EXPECT_TRUE(testing::bitwise_equal(
      net::decode_frame(frame, fx.layout, fx.base).params, fx.params));
}

/// `frame` with the little-endian `value` written at `at` and its CRC
/// recomputed, so only the field itself is wrong.
template <typename T>
std::vector<std::uint8_t> with_field(std::vector<std::uint8_t> frame,
                                     std::size_t at, T value) {
  std::memcpy(frame.data() + at, &value, sizeof value);
  const std::uint32_t crc = net::crc32(
      std::span<const std::uint8_t>(frame.data(), frame.size() - 4));
  std::memcpy(frame.data() + frame.size() - 4, &crc, 4);
  return frame;
}

TEST(QuantWireTest, TruncationAndCorruptionAreRejected) {
  QuantWireFixture fx;
  net::CodecResult result;
  const auto frame = net::encode_frame_auto(fx.message({}), fx.base,
                                            fx.layout, CodecId::kInt8PerNeuron,
                                            &result);
  // Every truncation point fails.
  for (std::size_t cut : {std::size_t{0}, std::size_t{5}, std::size_t{63},
                          frame.size() / 2, frame.size() - 1}) {
    std::vector<std::uint8_t> t(frame.begin(),
                                frame.begin() + static_cast<long>(cut));
    EXPECT_THROW(net::decode_frame(t, fx.layout, fx.base), net::WireError)
        << "cut at " << cut;
  }
  // Any single flipped byte fails (CRC, or a validated field).
  util::Rng rng(31);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<std::uint8_t> c = frame;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(static_cast<int>(c.size())));
    c[at] ^= 0x5A;
    EXPECT_THROW(net::decode_frame(c, fx.layout, fx.base), net::WireError)
        << "flip at " << at;
  }
  // Extra trailing bytes fail the exact-length check.
  std::vector<std::uint8_t> longer = frame;
  longer.push_back(0);
  EXPECT_THROW(net::decode_frame(longer, fx.layout, fx.base),
               net::WireError);
  // A sparse frame claiming more entries than the layout ships is refused
  // before anything is sized by that count.
  fx.params = fx.base;
  fx.params[7] += 1.0F;
  const auto sparse = net::encode_frame_auto(
      fx.message({}), fx.base, fx.layout, CodecId::kInt8PerNeuron, &result);
  ASSERT_TRUE(result.sparse);
  EXPECT_THROW(net::decode_frame(with_field(sparse, 32, ~std::uint64_t{0}),
                                 fx.layout, fx.base),
               net::WireError);
}

TEST(QuantWireTest, SingleVersionRules) {
  QuantWireFixture fx;
  for (CodecId id :
       {CodecId::kFp32, CodecId::kFp16, CodecId::kInt8PerNeuron}) {
    const auto frame =
        net::encode_frame_auto(fx.message({}), fx.base, fx.layout, id);
    // Every codec ships version 2 with its id at offset 56.
    EXPECT_EQ(frame[4], 2);
    std::uint32_t codec_id = 0;
    std::memcpy(&codec_id, frame.data() + 56, 4);
    EXPECT_EQ(codec_id, static_cast<std::uint32_t>(id));
    EXPECT_NO_THROW(net::decode_frame(frame, fx.layout, fx.base));
    // Versions 1 and 3 are refused even with a valid CRC.
    for (std::uint16_t version : {1, 3}) {
      EXPECT_THROW(net::decode_frame(with_field(frame, 4, version), fx.layout,
                                     fx.base),
                   net::WireError)
          << "version " << version;
    }
    // So are the retired codec ids: the per-tensor int8 (2) and the
    // dispatch-only "pick the smallest" id.
    for (std::uint32_t retired : {2U, 0xFFFFFFFFU}) {
      EXPECT_THROW(net::decode_frame(with_field(frame, 56, retired),
                                     fx.layout, fx.base),
                   net::WireError)
          << "codec id " << retired;
    }
  }
  // fp32 never ships deltas, and a sparse lossy frame always does.
  const auto fp32 = net::encode_frame_auto(fx.message({}), fx.base,
                                           fx.layout, CodecId::kFp32);
  const auto delta_fp32 = with_field(
      fp32, 6, static_cast<std::uint16_t>(fp32[6] | net::kFlagDelta));
  EXPECT_THROW(net::decode_frame(delta_fp32, fx.layout, fx.base),
               net::WireError);
  fx.params = fx.base;
  fx.params[7] += 1.0F;
  net::CodecResult result;
  const auto sparse = net::encode_frame_auto(
      fx.message({}), fx.base, fx.layout, CodecId::kFp16, &result);
  ASSERT_TRUE(result.sparse);
  const auto absolute = with_field(
      sparse, 6, static_cast<std::uint16_t>(sparse[6] & ~net::kFlagDelta));
  EXPECT_THROW(net::decode_frame(absolute, fx.layout, fx.base),
               net::WireError);
}

// ---- Pinned frame bytes ----------------------------------------------------

/// One pinned encode of QuantWireFixture's update: optionally masked (every
/// third neuron off, frozen at the base), optionally top-k sparsified (all
/// but every 401st entry reverted to the base), encoded with or without the
/// base snapshot.
struct PinnedCase {
  const char* name;
  CodecId codec;
  bool masked;
  bool topk;
  bool with_base;
  bool sparse;  // the encoding the encoder picks
};

struct PinnedEncode {
  QuantWireFixture fx;
  std::vector<std::uint8_t> mask;
  net::CodecResult result;
  std::vector<std::uint8_t> frame;

  explicit PinnedEncode(const PinnedCase& c) {
    if (c.masked) {
      mask.resize(static_cast<std::size_t>(fx.layout.neuron_total));
      for (std::size_t j = 0; j < mask.size(); ++j) mask[j] = j % 3 != 0;
      fx.freeze_unmasked(mask);
    }
    if (c.topk) {
      for (std::size_t f = 0; f < fx.params.size(); ++f) {
        if (f % 401 != 0) fx.params[f] = fx.base[f];
      }
    }
    const std::span<const float> base =
        c.with_base ? std::span<const float>(fx.base)
                    : std::span<const float>();
    frame = net::encode_frame_auto(fx.message(mask), base, fx.layout, c.codec,
                                   &result);
  }
};

// The fp16 and int8pn frames, byte for byte. Recorded before fp32 joined
// their layout; a mismatch means the lossy frames changed on the wire. Never
// re-record these to make a change pass.
TEST(FrameDigestTest, LossyFramesAreByteStable) {
  struct Pinned {
    PinnedCase c;
    std::size_t bytes;
    std::uint64_t digest;
  };
  constexpr CodecId kF16 = CodecId::kFp16;
  constexpr CodecId kI8 = CodecId::kInt8PerNeuron;
  // name, codec, masked, top-k, with base, sparse | bytes, digest
  const Pinned pinned[] = {
      {{"fp16_dense", kF16, false, false, false, false},
       3388, 0x71224a701a50fe7cULL},
      {{"fp16_masked", kF16, true, false, false, false},
       2351, 0x78c6997b9c2d7402ULL},
      {{"fp16_dense_base", kF16, false, false, true, false},
       3388, 0xe9db761f1210cf13ULL},
      {{"fp16_masked_base", kF16, true, false, true, false},
       2351, 0x05ab4c82a0ed630cULL},
      {{"fp16_sparse", kF16, false, true, true, true},
       98, 0x64e19e26da58a31aULL},
      {{"fp16_sparse_masked", kF16, true, true, true, true},
       77, 0xcc9d7bfd04bfb5ebULL},
      {{"int8pn_dense", kI8, false, false, false, false},
       1778, 0x1cc015218bf762d1ULL},
      {{"int8pn_masked", kI8, true, false, false, false},
       1245, 0x719c1747cee394abULL},
      {{"int8pn_dense_base", kI8, false, false, true, false},
       1778, 0x4ab3048bc48864e7ULL},
      {{"int8pn_masked_base", kI8, true, false, true, false},
       1245, 0x2b96ecbf1c42edebULL},
      {{"int8pn_sparse", kI8, false, true, true, true},
       103, 0xc3c0dfe384f8a658ULL},
      {{"int8pn_sparse_masked", kI8, true, true, true, true},
       78, 0xe95bf06b4e47ff1dULL},
  };
  for (const Pinned& p : pinned) {
    const PinnedEncode e(p.c);
    EXPECT_EQ(e.result.sparse, p.c.sparse) << p.c.name;
    EXPECT_EQ(e.frame.size(), p.bytes) << p.c.name;
    EXPECT_EQ(testing::fnv1a(e.frame), p.digest)
        << p.c.name << " 0x" << std::hex << testing::fnv1a(e.frame);
  }
}

// fp32 frames: the retired version-1 frame of each case (sizes recorded
// from that encoder) plus the 8-byte codec word, bit-exact dense and sparse,
// with no dequantized mirror.
TEST(QuantWireTest, Fp32FramesGrowByTheHeaderOnly) {
  struct Pinned {
    PinnedCase c;
    std::size_t v1_bytes;
  };
  const Pinned pinned[] = {
      {{"fp32_dense", CodecId::kFp32, false, false, false, false}, 6700},
      {{"fp32_masked", CodecId::kFp32, true, false, true, false}, 4623},
      {{"fp32_sparse", CodecId::kFp32, false, true, true, true}, 100},
      {{"fp32_sparse_masked", CodecId::kFp32, true, true, true, true}, 71},
  };
  for (const Pinned& p : pinned) {
    const PinnedEncode e(p.c);
    EXPECT_EQ(e.result.sparse, p.c.sparse) << p.c.name;
    EXPECT_EQ(e.frame.size(), p.v1_bytes + 8) << p.c.name;
    expect_quant_roundtrip(e.fx, CodecId::kFp32, e.mask, e.frame, e.result);
  }
}

// ---- Merge frames (agg tier uplinks) ---------------------------------------

TEST(MergeCodecTest, RejectsUnknownCodecAndCorruption) {
  nn::Model model = models::mlp_spec({1, 8, 8, 4}, 24).build(3);
  const agg::ModelGeometry geo = agg::make_geometry(model);
  agg::StreamingAccumulator acc(&geo);
  std::vector<float> params(geo.param_count, 0.5F);
  std::vector<float> buffers(geo.buffer_count, 0.25F);
  acc.fold({0, params, buffers, {}}, {1.0, 1.0}, false);

  const auto frame = acc.encode_frame();
  EXPECT_NO_THROW(agg::StreamingAccumulator::decode_frame(frame, &geo));

  // Merge frames are f64 only: the word after the magic, once the codec id,
  // is a reserved zero. The retired f32/f16 ids and an unknown one are
  // refused even under a valid CRC.
  for (const std::uint8_t id : {std::uint8_t{1}, std::uint8_t{2},
                                std::uint8_t{7}}) {
    auto bad = frame;
    bad[4] = id;
    const std::uint32_t crc = net::crc32(
        std::span<const std::uint8_t>(bad.data(), bad.size() - 4));
    std::memcpy(bad.data() + bad.size() - 4, &crc, 4);
    EXPECT_THROW(agg::StreamingAccumulator::decode_frame(bad, &geo),
                 net::WireError)
        << "codec word " << static_cast<int>(id);
  }
  auto flipped = frame;
  flipped[frame.size() / 2] ^= 0x40;
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(flipped, &geo),
               net::WireError);
  std::vector<std::uint8_t> shorter(frame.begin(), frame.end() - 8);
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(shorter, &geo),
               net::WireError);
}

// ---- Fleet-level integration -----------------------------------------------

struct CodecRun {
  double accuracy = 0.0;
  double wire_bytes = 0.0;
  std::vector<float> global;
};

CodecRun run_with_codec(CodecId codec, bool error_feedback, int threads,
                        int cycles = 3) {
  util::set_global_threads(threads);
  obs::TelemetrySink telemetry;
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&telemetry);
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.payload_codec = codec;
  opts.error_feedback = error_feedback;
  fl::NetworkSession session(fleet, opts);
  const fl::RunResult r = fl::SyncFL().run(fleet, cycles);
  CodecRun out;
  out.accuracy = r.rounds.back().test_accuracy;
  out.wire_bytes =
      telemetry.metrics().counter("helios.net.round_bytes_on_wire_total")
          .value();
  out.global.assign(fleet.server().global().begin(),
                    fleet.server().global().end());
  fleet.set_telemetry(nullptr);
  util::set_global_threads(0);
  return out;
}

TEST(CodecFleetTest, QuantizedUploadsShrinkWireBytesAndPreserveAccuracy) {
  const CodecRun fp32 = run_with_codec(CodecId::kFp32, false, 1);
  const CodecRun int8 = run_with_codec(CodecId::kInt8PerNeuron, true, 1);
  ASSERT_GT(fp32.wire_bytes, 0.0);
  ASSERT_GT(int8.wire_bytes, 0.0);
  // The tentpole target: >= 4x wire reduction (the int8 payload plus fp16
  // scales against fp32 dense) ...
  EXPECT_GE(fp32.wire_bytes / int8.wire_bytes, 3.5);
  // ... at a small accuracy cost on this toy federation.
  EXPECT_NEAR(int8.accuracy, fp32.accuracy, 0.10);
}

TEST(CodecFleetTest, QuantizedRunsAreThreadCountDeterministic) {
  const CodecRun t1 = run_with_codec(CodecId::kInt8PerNeuron, true, 1);
  const CodecRun t4 = run_with_codec(CodecId::kInt8PerNeuron, true, 4);
  ASSERT_EQ(t1.global.size(), t4.global.size());
  EXPECT_EQ(std::memcmp(t1.global.data(), t4.global.data(),
                        t1.global.size() * sizeof(float)),
            0);
  EXPECT_EQ(t1.wire_bytes, t4.wire_bytes);
  EXPECT_EQ(t1.accuracy, t4.accuracy);
}

TEST(CodecFleetTest, ErrorFeedbackCarriesResidualsAcrossRounds) {
  obs::TelemetrySink telemetry;
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&telemetry);
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.payload_codec = CodecId::kInt8PerNeuron;
  opts.error_feedback = true;
  fl::NetworkSession session(fleet, opts);
  fl::SyncFL().run(fleet, 2);
  // Every participating client holds a residual bank entry, and quantized
  // rounds leave non-zero residuals behind.
  EXPECT_FALSE(session.feedback().empty());
  double total = 0.0;
  for (const auto& [id, residual] : session.feedback().all()) {
    total += session.feedback().l2_norm(id);
  }
  EXPECT_GT(total, 0.0);
  // Telemetry saw the codec at work (counters are per-device labeled).
  double bytes_in = 0.0, bytes_out = 0.0;
  for (std::size_t id = 0; id < fleet.size(); ++id) {
    const obs::LabelSet labels{{"device", std::to_string(id)}};
    bytes_in += telemetry.metrics()
                    .counter("helios.codec.bytes_in_total", labels)
                    .value();
    bytes_out += telemetry.metrics()
                     .counter("helios.codec.bytes_out_total", labels)
                     .value();
  }
  EXPECT_GT(bytes_in, 0.0);
  EXPECT_GT(bytes_in, bytes_out);
  fleet.set_telemetry(nullptr);
}

// deliver_round encodes a round's updates concurrently, each writing its
// client's residual, so one round may not carry a client twice under error
// feedback. Without a residual bank, a repeated update is just sent twice.
TEST(CodecFleetTest, RepeatedClientInOneRoundThrowsUnderErrorFeedback) {
  fl::Fleet fleet = testing::make_fleet();
  const fl::ClientUpdate u = fleet.client(0).run_cycle(
      fleet.server().global(), fleet.server().global_buffers(), {});
  const std::vector<fl::ClientUpdate> twice{u, u};
  {
    net::NetworkOptions opts;
    opts.payload_codec = CodecId::kInt8PerNeuron;
    opts.error_feedback = true;
    fl::NetworkSession session(fleet, opts);
    EXPECT_THROW(session.deliver_round(twice, fleet.server().global()),
                 std::logic_error);
  }
  fl::NetworkSession session(fleet, net::NetworkOptions{});
  EXPECT_EQ(session.deliver_round(twice, fleet.server().global())
                .arrived.size(),
            2u);
}

TEST(CodecFleetTest, JournalSummarizesAndReplaysCodecEvents) {
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&sink);
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.payload_codec = CodecId::kInt8PerNeuron;
  opts.error_feedback = true;
  fl::NetworkSession session(fleet, opts);
  fl::SyncFL().run(fleet, 2);
  fleet.set_telemetry(nullptr);
  sink.flush();
  std::ostringstream live;
  sink.render_dashboard(live);

  std::istringstream is(sink.journal_text());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  const obs::JournalSummary s = obs::summarize_journal(events);
  // The codec rollup: a quantized run's encoded bytes are a strict subset
  // of their fp32-dense cost, fleet-wide and per device.
  ASSERT_GT(s.codec_raw_bytes, 0);
  ASSERT_GT(s.codec_wire_bytes, 0);
  EXPECT_GT(s.codec_raw_bytes, s.codec_wire_bytes);
  long long dev_raw = 0, dev_wire = 0;
  for (const auto& [id, d] : s.devices) {
    dev_raw += d.codec_raw_bytes;
    dev_wire += d.codec_wire_bytes;
  }
  EXPECT_EQ(dev_raw, s.codec_raw_bytes);
  EXPECT_EQ(dev_wire, s.codec_wire_bytes);
  std::ostringstream text;
  obs::write_summary(text, s);
  EXPECT_NE(text.str().find("codec:"), std::string::npos);

  // Replaying the journal reconstructs the live dashboard — including the
  // codec bytes-saved column — byte-for-byte, in the rendering and in both
  // JSON artifacts.
  obs::StragglerDashboard replayed;
  obs::replay_dashboard(events, replayed);
  std::ostringstream replay;
  replayed.render(replay);
  EXPECT_EQ(replay.str(), live.str());
  std::ostringstream live_json, replay_json;
  sink.dashboard().write_json(live_json);
  sink.dashboard().write_summary_json(live_json);
  replayed.write_json(replay_json);
  replayed.write_summary_json(replay_json);
  EXPECT_EQ(replay_json.str(), live_json.str());
}

// ---- The int8pn acceptance floor -------------------------------------------

struct SweepCell {
  double wire_bytes = 0.0;  // retransmits included
  double accuracy = 0.0;
};

// One run of the network benchmark's codec sweep (`run_quant_once` in
// bench/bench_net.cpp): a 40-device mobile long tail with its slowest
// quarter flagged and given profiled volumes, sampled at C = 0.1 for 40
// rounds over simulated channels (5 ms latency, 2 ms jitter, a x2 deadline),
// error feedback on.
SweepCell run_codec_sweep(bool helios, CodecId codec, double loss) {
  constexpr int kDevices = 40;
  const sim::PopulationGenerator pop(sim::mobile_longtail(kDevices));
  fl::Fleet fleet = sim::build_fleet(pop);
  const core::StragglerReport report =
      core::StragglerIdentifier::time_based(fleet, kDevices / 4);
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  sim::CohortSampler::Options sopts;
  sopts.fraction = 0.1;
  sopts.seed = 29;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  obs::TelemetryConfig tcfg;
  tcfg.tracing = false;
  obs::TelemetrySink telemetry(tcfg);
  fleet.set_telemetry(&telemetry);

  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.loss_prob = loss;
  opts.channel.latency_s = 0.005;
  opts.channel.jitter_s = 0.002;
  opts.deadline_factor = 2.0;
  opts.seed = 97;
  opts.payload_codec = codec;
  opts.error_feedback = true;
  fl::NetworkSession session(fleet, opts);

  std::unique_ptr<fl::Strategy> strategy;
  if (helios) {
    strategy = std::make_unique<core::HeliosStrategy>();
  } else {
    strategy = std::make_unique<fl::SyncFL>();
  }
  SweepCell out;
  out.accuracy = strategy->run(fleet, 40).final_accuracy();
  for (int d = 0; d < kDevices; ++d) {
    out.wire_bytes +=
        telemetry.metrics()
            .counter("helios.net.bytes_on_wire_total",
                     {{"device", std::to_string(d)}})
            .value();
  }
  fleet.set_telemetry(nullptr);
  fleet.set_sampler(nullptr);
  return out;
}

struct FloorCell {
  const char* name;
  bool helios;
  double loss;
};

// gtest's default printer would list the struct's bytes, the name pointer
// among them, so the ctest names discovered from the listing would change
// from build to build.
void PrintTo(const FloorCell& cell, std::ostream* os) { *os << cell.name; }

class Int8pnFloorTest : public ::testing::TestWithParam<FloorCell> {};

// Against fp32 at the same loss rate, int8pn puts at least 4x fewer bytes
// on the wire and costs at most 0.5 points of final accuracy (the mean over
// the last 3 rounds of 256 test samples each).
TEST_P(Int8pnFloorTest, QuartersTheWireWithinHalfAPointOfFp32) {
  const FloorCell& cell = GetParam();
  const SweepCell fp32 = run_codec_sweep(cell.helios, CodecId::kFp32,
                                         cell.loss);
  const SweepCell int8 = run_codec_sweep(
      cell.helios, CodecId::kInt8PerNeuron, cell.loss);
  ASSERT_GT(int8.wire_bytes, 0.0);
  const double reduction = fp32.wire_bytes / int8.wire_bytes;
  const double delta = int8.accuracy - fp32.accuracy;
  std::cout << cell.name << ": int8pn wire " << reduction
            << "x below fp32, accuracy " << delta * 100.0
            << " points against fp32\n";
  EXPECT_GE(reduction, 4.0);
  EXPECT_GE(delta, -0.005);
}

INSTANTIATE_TEST_SUITE_P(
    CodecSweep, Int8pnFloorTest,
    ::testing::Values(FloorCell{"syn_fl_loss0", false, 0.0},
                      FloorCell{"syn_fl_loss1", false, 0.01},
                      FloorCell{"syn_fl_loss5", false, 0.05},
                      FloorCell{"helios_loss0", true, 0.0},
                      FloorCell{"helios_loss1", true, 0.01},
                      FloorCell{"helios_loss5", true, 0.05}),
    [](const ::testing::TestParamInfo<FloorCell>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace helios
