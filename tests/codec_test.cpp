// Quantized wire codec subsystem: codec-layer round trips (property-style
// fuzz over shapes, scales and degenerate masks), NaN/Inf rejection, the
// zero-run escape coding's edges, v2 frame truncation/corruption refusal,
// v1 <-> v2 cross-version decoding, the fp32-codec == v1 byte identity the
// default path relies on, quantized merge frames (agg::MergeCodec), and
// fleet-level integration: error-feedback compensation, wire-byte savings
// and thread-count determinism with a quantized payload codec.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "agg/accumulator.h"
#include "codec/codec.h"
#include "codec/error_feedback.h"
#include "core/helios_strategy.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "models/zoo.h"
#include "net/wire.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
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

// ---- Codec-layer round trips ----------------------------------------------

/// Encode -> decode round trip under `id`; checks the payload size
/// prediction, the decode, and the sender-side dequantized mirror.
void expect_codec_roundtrip(CodecId id, const std::vector<float>& values,
                            const std::vector<std::uint32_t>& groups,
                            std::size_t group_count) {
  const codec::QuantPlan plan =
      codec::plan_quantization(id, values, groups, group_count);
  std::vector<std::uint8_t> payload;
  const std::size_t n = codec::encode_values(plan, values, groups, payload);
  ASSERT_EQ(n, payload.size());
  EXPECT_EQ(n, codec::payload_bytes(plan, values, groups));

  const std::vector<float> decoded =
      codec::decode_values(plan, payload, groups, values.size());
  const std::vector<float> mirror =
      codec::dequantized_values(plan, values, groups);
  ASSERT_EQ(decoded.size(), values.size());
  ASSERT_EQ(mirror.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i], mirror[i]) << "sender/receiver mismatch at " << i;
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
      const float s = plan.scale(groups.empty() ? 0 : groups[i]);
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
  const CodecId ids[] = {CodecId::kFp32, CodecId::kFp16,
                         CodecId::kInt8PerTensor, CodecId::kInt8PerNeuron};
  const std::size_t sizes[] = {1, 2, 7, 64, 257, 1000};
  const double scales[] = {1e-6, 0.01, 1.0, 100.0, 30000.0};
  for (CodecId id : ids) {
    for (std::size_t n : sizes) {
      for (double sc : scales) {
        std::vector<float> values(n);
        for (auto& v : values) v = static_cast<float>(rng.normal() * sc);
        // Sprinkle exact zeros to exercise the run coding.
        for (auto& v : values) {
          if (rng.uniform() < 0.3) v = 0.0F;
        }
        const std::size_t group_count =
            id == CodecId::kInt8PerNeuron ? 1 + n / 7 : 1;
        const std::vector<std::uint32_t> groups =
            id == CodecId::kInt8PerNeuron
                ? random_groups(n, group_count, rng)
                : std::vector<std::uint32_t>{};
        expect_codec_roundtrip(id, values, groups, group_count);
      }
    }
  }
}

TEST(CodecTest, AllZeroStreamCompressesAndRoundTrips) {
  const std::vector<float> zeros(500, 0.0F);
  const codec::QuantPlan plan =
      codec::plan_quantization(CodecId::kInt8PerTensor, zeros, {}, 1);
  std::vector<std::uint8_t> payload;
  codec::encode_values(plan, zeros, {}, payload);
  // 500 zeros -> two escape+length pairs (runs cap at 255).
  EXPECT_LE(payload.size(), 4U);
  const std::vector<float> decoded =
      codec::decode_values(plan, payload, {}, zeros.size());
  for (float v : decoded) EXPECT_EQ(v, 0.0F);
}

TEST(CodecTest, ShortZeroRunsAreNotEscaped) {
  // Runs of 1-2 zeros stay literal bytes; the payload never expands.
  const std::vector<float> values = {1.0F, 0.0F, 0.0F, 1.0F, 0.0F, 1.0F};
  const codec::QuantPlan plan =
      codec::plan_quantization(CodecId::kInt8PerTensor, values, {}, 1);
  std::vector<std::uint8_t> payload;
  codec::encode_values(plan, values, {}, payload);
  EXPECT_EQ(payload.size(), values.size());
  const std::vector<float> decoded =
      codec::decode_values(plan, payload, {}, values.size());
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
    const codec::QuantPlan plan =
        codec::plan_quantization(CodecId::kInt8PerTensor, values, {}, 1);
    std::vector<std::uint8_t> payload;
    codec::encode_values(plan, values, {}, payload);
    EXPECT_LE(payload.size(), values.size());
  }
}

TEST(CodecTest, RejectsNaNAndInf) {
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    std::vector<float> values = {1.0F, bad, 2.0F};
    EXPECT_THROW(
        codec::plan_quantization(CodecId::kInt8PerTensor, values, {}, 1),
        codec::CodecError);
    EXPECT_THROW(codec::plan_quantization(CodecId::kFp16, values, {}, 1),
                 codec::CodecError);
  }
}

TEST(CodecTest, DecodeRejectsTruncatedAndOversizedPayloads) {
  util::Rng rng(23);
  std::vector<float> values(64);
  for (auto& v : values) v = static_cast<float>(rng.normal());
  const codec::QuantPlan plan =
      codec::plan_quantization(CodecId::kInt8PerTensor, values, {}, 1);
  std::vector<std::uint8_t> payload;
  codec::encode_values(plan, values, {}, payload);

  std::vector<std::uint8_t> shorter(payload.begin(), payload.end() - 1);
  EXPECT_THROW(codec::decode_values(plan, shorter, {}, values.size()),
               codec::CodecError);
  std::vector<std::uint8_t> longer = payload;
  longer.push_back(0x00);
  EXPECT_THROW(codec::decode_values(plan, longer, {}, values.size()),
               codec::CodecError);
}

TEST(CodecTest, DecodeRejectsCorruptZeroRun) {
  // An escape byte announcing a run that overruns the value count.
  const codec::QuantPlan plan =
      codec::plan_quantization(CodecId::kInt8PerTensor,
                               std::vector<float>{1.0F}, {}, 1);
  const std::vector<std::uint8_t> bogus = {0x80, 0xFF};
  EXPECT_THROW(codec::decode_values(plan, bogus, {}, 4), codec::CodecError);
  // A run length below the escape threshold is malformed by construction.
  const std::vector<std::uint8_t> tiny_run = {0x80, 0x02, 0x01, 0x01};
  EXPECT_THROW(codec::decode_values(plan, tiny_run, {}, 4),
               codec::CodecError);
}

TEST(CodecTest, RegistryNamesAndIds) {
  EXPECT_EQ(codec::codec_from_name("fp32"), CodecId::kFp32);
  EXPECT_EQ(codec::codec_from_name("fp16"), CodecId::kFp16);
  EXPECT_EQ(codec::codec_from_name("int8"), CodecId::kInt8PerTensor);
  EXPECT_EQ(codec::codec_from_name("int8pn"), CodecId::kInt8PerNeuron);
  EXPECT_EQ(codec::codec_from_name("auto"), CodecId::kAuto);
  EXPECT_THROW(codec::codec_from_name("lz4"), codec::CodecError);
  EXPECT_TRUE(codec::codec_known(0));
  EXPECT_TRUE(codec::codec_known(3));
  EXPECT_FALSE(codec::codec_known(4));
  EXPECT_FALSE(codec::codec_known(0xFFFFFFFFU));
  EXPECT_THROW(codec::codec_info(CodecId::kAuto), codec::CodecError);
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
  ef.assign(2, {3.0F, 4.0F});
  EXPECT_DOUBLE_EQ(ef.l2_norm(2), 5.0);
  EXPECT_THROW(ef.residual(2, 3), codec::CodecError);  // length mismatch
  ef.clear();
  EXPECT_TRUE(ef.empty());
}

// ---- v2 wire frames --------------------------------------------------------

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
/// view (CodecResult.dequantized), with unshipped entries at the base.
void expect_quant_roundtrip(const QuantWireFixture& fx,
                            std::span<const std::uint8_t> mask,
                            const std::vector<std::uint8_t>& frame,
                            const net::CodecResult& result) {
  const net::DecodedMessage d = net::decode_frame(frame, fx.layout, fx.base);
  EXPECT_EQ(d.client_id, 42);
  EXPECT_EQ(d.sample_count, 1234U);
  ASSERT_EQ(d.params.size(), fx.layout.param_count);
  if (result.codec == CodecId::kFp32) {
    EXPECT_EQ(std::memcmp(d.params.data(), fx.params.data(),
                          fx.params.size() * sizeof(float)),
              0);
  } else {
    ASSERT_EQ(result.dequantized.size(), fx.layout.param_count);
    EXPECT_EQ(std::memcmp(d.params.data(), result.dequantized.data(),
                          d.params.size() * sizeof(float)),
              0)
        << "decoder disagrees with the encoder's dequantized mirror";
    // Shipped entries land within the quantization error of the true value;
    // unshipped entries are exactly the base.
    for (std::size_t f = 0; f < fx.layout.param_count; ++f) {
      const std::uint32_t n = fx.layout.neuron_of[f];
      const bool shipped = mask.empty() ||
                           n == net::WireLayout::kCommonParam || mask[n] != 0;
      if (!shipped) {
        EXPECT_EQ(d.params[f], fx.base[f]) << "index " << f;
      }
    }
  }
  // Buffers are never quantized.
  if (!fx.buffers.empty()) {
    EXPECT_EQ(std::memcmp(d.buffers.data(), fx.buffers.data(),
                          fx.buffers.size() * sizeof(float)),
              0);
  }
}

TEST(QuantWireTest, Fp32CodecIsByteIdenticalToV1) {
  QuantWireFixture fx;
  util::Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<std::uint8_t> mask(
        static_cast<std::size_t>(fx.layout.neuron_total));
    for (auto& b : mask) b = rng.uniform() < 0.5 ? 1 : 0;
    fx.freeze_unmasked(mask);
    const auto v1 = net::encode_frame_auto(fx.message(mask), fx.base,
                                           fx.layout);
    net::CodecResult result;
    const auto v2 = net::encode_frame_auto(fx.message(mask), fx.base,
                                           fx.layout, CodecId::kFp32,
                                           &result);
    EXPECT_EQ(v1, v2);
    EXPECT_EQ(result.codec, CodecId::kFp32);
    // Dense overload too.
    const auto d1 = net::encode_frame(fx.message(mask), fx.layout);
    const auto d2 = net::encode_frame(fx.message(mask), fx.layout,
                                      CodecId::kFp32, nullptr);
    EXPECT_EQ(d1, d2);
  }
}

TEST(QuantWireTest, QuantizedRoundTripsAcrossCodecsAndMasks) {
  QuantWireFixture fx;
  util::Rng rng(11);
  const CodecId ids[] = {CodecId::kFp16, CodecId::kInt8PerTensor,
                         CodecId::kInt8PerNeuron, CodecId::kAuto};
  for (CodecId id : ids) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::uint8_t> mask(
          static_cast<std::size_t>(fx.layout.neuron_total));
      for (auto& b : mask) b = rng.uniform() < 0.6 ? 1 : 0;
      fx.freeze_unmasked(mask);
      net::CodecResult result;
      const auto frame = net::encode_frame_auto(fx.message(mask), fx.base,
                                                fx.layout, id, &result);
      expect_quant_roundtrip(fx, mask, frame, result);
    }
  }
}

TEST(QuantWireTest, DegenerateMasksRoundTrip) {
  QuantWireFixture fx;
  const auto m = static_cast<std::size_t>(fx.layout.neuron_total);
  // All-zero mask: only common parameters ship.
  std::vector<std::uint8_t> none(m, 0);
  fx.freeze_unmasked(none);
  net::CodecResult result;
  auto frame = net::encode_frame_auto(fx.message(none), fx.base, fx.layout,
                                      CodecId::kInt8PerNeuron, &result);
  expect_quant_roundtrip(fx, none, frame, result);

  // Single-neuron mask.
  QuantWireFixture fx2(9);
  std::vector<std::uint8_t> one(m, 0);
  one[m / 2] = 1;
  fx2.freeze_unmasked(one);
  frame = net::encode_frame_auto(fx2.message(one), fx2.base, fx2.layout,
                                 CodecId::kInt8PerNeuron, &result);
  expect_quant_roundtrip(fx2, one, frame, result);

  // Full mask (all ones) == effectively dense.
  QuantWireFixture fx3(13);
  std::vector<std::uint8_t> all(m, 1);
  frame = net::encode_frame_auto(fx3.message(all), fx3.base, fx3.layout,
                                 CodecId::kInt8PerTensor, &result);
  expect_quant_roundtrip(fx3, all, frame, result);
}

TEST(QuantWireTest, NoBaseDenseEncodingRoundTrips) {
  // encode_frame (no base snapshot): values ship absolute, not delta-coded.
  QuantWireFixture fx;
  net::CodecResult result;
  const auto frame = net::encode_frame(fx.message({}), fx.layout,
                                       CodecId::kInt8PerTensor, &result);
  const net::DecodedMessage d = net::decode_frame(frame, fx.layout, {});
  ASSERT_EQ(result.dequantized.size(), fx.layout.param_count);
  EXPECT_EQ(std::memcmp(d.params.data(), result.dequantized.data(),
                        d.params.size() * sizeof(float)),
            0);
}

TEST(QuantWireTest, QuantizedFramesAreSmaller) {
  QuantWireFixture fx;
  const auto v1 = net::encode_frame_auto(fx.message({}), fx.base, fx.layout);
  net::CodecResult result;
  const auto int8 = net::encode_frame_auto(fx.message({}), fx.base,
                                           fx.layout, CodecId::kInt8PerNeuron,
                                           &result);
  const auto fp16 = net::encode_frame_auto(fx.message({}), fx.base,
                                           fx.layout, CodecId::kFp16,
                                           nullptr);
  EXPECT_LT(fp16.size(), v1.size());
  EXPECT_LT(int8.size(), fp16.size());
  const auto autof = net::encode_frame_auto(fx.message({}), fx.base,
                                            fx.layout, CodecId::kAuto,
                                            nullptr);
  EXPECT_LE(autof.size(), int8.size());
}

TEST(QuantWireTest, RejectsNonFinitePayloads) {
  QuantWireFixture fx;
  fx.params[3] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(net::encode_frame_auto(fx.message({}), fx.base, fx.layout,
                                      CodecId::kInt8PerTensor, nullptr),
               codec::CodecError);
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
}

TEST(QuantWireTest, CrossVersionRules) {
  QuantWireFixture fx;
  // A v1 frame decodes through the same decoder (cross-version read).
  const auto v1 = net::encode_frame_auto(fx.message({}), fx.base, fx.layout);
  EXPECT_EQ(v1[4], 1);  // version byte
  EXPECT_NO_THROW(net::decode_frame(v1, fx.layout, fx.base));

  // A v2 frame announces version 2 and decodes too.
  net::CodecResult result;
  auto v2 = net::encode_frame_auto(fx.message({}), fx.base, fx.layout,
                                   CodecId::kInt8PerTensor, &result);
  EXPECT_EQ(v2[4], 2);
  EXPECT_NO_THROW(net::decode_frame(v2, fx.layout, fx.base));

  // An unknown version is refused even with a valid CRC.
  auto unk = v1;
  unk[4] = 3;
  const std::uint32_t crc = net::crc32(
      std::span<const std::uint8_t>(unk.data(), unk.size() - 4));
  std::memcpy(unk.data() + unk.size() - 4, &crc, 4);
  EXPECT_THROW(net::decode_frame(unk, fx.layout, fx.base), net::WireError);

  // A v2 frame claiming the fp32 codec is malformed (fp32 must ship as v1).
  auto bad = v2;
  const std::uint32_t fp32_id = 0;
  std::memcpy(bad.data() + 56, &fp32_id, 4);
  const std::uint32_t crc2 = net::crc32(
      std::span<const std::uint8_t>(bad.data(), bad.size() - 4));
  std::memcpy(bad.data() + bad.size() - 4, &crc2, 4);
  EXPECT_THROW(net::decode_frame(bad, fx.layout, fx.base), net::WireError);

  // An unknown codec id is refused.
  auto badc = v2;
  const std::uint32_t codec_id = 9;
  std::memcpy(badc.data() + 56, &codec_id, 4);
  const std::uint32_t crc3 = net::crc32(
      std::span<const std::uint8_t>(badc.data(), badc.size() - 4));
  std::memcpy(badc.data() + badc.size() - 4, &crc3, 4);
  EXPECT_THROW(net::decode_frame(badc, fx.layout, fx.base), net::WireError);

  // A v1 frame carrying the v2-only delta flag is refused.
  auto badf = v1;
  badf[6] |= 0x04;  // kFlagDelta
  const std::uint32_t crc4 = net::crc32(
      std::span<const std::uint8_t>(badf.data(), badf.size() - 4));
  std::memcpy(badf.data() + badf.size() - 4, &crc4, 4);
  EXPECT_THROW(net::decode_frame(badf, fx.layout, fx.base), net::WireError);
}

// ---- Quantized merge frames (agg tier uplinks) ------------------------------

TEST(MergeCodecTest, QuantizedMergeFramesRoundTrip) {
  nn::Model model = models::mlp_spec({1, 8, 8, 4}, 24).build(3);
  const agg::ModelGeometry geo = agg::make_geometry(model);
  util::Rng rng(19);
  agg::StreamingAccumulator acc(&geo);
  std::vector<float> params(geo.param_count);
  std::vector<float> buffers(geo.buffer_count);
  for (auto& v : params) v = static_cast<float>(rng.normal());
  for (auto& v : buffers) v = static_cast<float>(rng.normal());
  acc.fold({0, params, buffers, {}}, {1.0, 0.7}, true);

  // kF64 is bit-exact; kF32/kF16 are close and strictly smaller.
  const auto f64 = acc.encode_frame(agg::MergeCodec::kF64);
  const auto f32 = acc.encode_frame(agg::MergeCodec::kF32);
  const auto f16 = acc.encode_frame(agg::MergeCodec::kF16);
  EXPECT_EQ(f64.size(),
            agg::StreamingAccumulator::frame_bytes(geo, agg::MergeCodec::kF64));
  EXPECT_EQ(f32.size(),
            agg::StreamingAccumulator::frame_bytes(geo, agg::MergeCodec::kF32));
  EXPECT_EQ(f16.size(),
            agg::StreamingAccumulator::frame_bytes(geo, agg::MergeCodec::kF16));
  EXPECT_LT(f32.size(), f64.size());
  EXPECT_LT(f16.size(), f32.size());

  const auto d64 = agg::StreamingAccumulator::decode_frame(f64, &geo);
  EXPECT_EQ(d64.acc(), acc.acc());
  EXPECT_EQ(d64.den(), acc.den());
  EXPECT_EQ(d64.buffer_den(), acc.buffer_den());

  for (const auto* frame : {&f32, &f16}) {
    const auto d = agg::StreamingAccumulator::decode_frame(*frame, &geo);
    ASSERT_EQ(d.acc().size(), acc.acc().size());
    EXPECT_EQ(d.folded(), acc.folded());
    double max_rel = 0.0;
    for (std::size_t i = 0; i < acc.acc().size(); ++i) {
      const double denom = std::max(1e-3, std::abs(acc.acc()[i]));
      max_rel = std::max(max_rel, std::abs(d.acc()[i] - acc.acc()[i]) / denom);
    }
    EXPECT_LT(max_rel, frame == &f32 ? 1e-6 : 2e-3);
    EXPECT_NEAR(d.buffer_den(), acc.buffer_den(),
                std::abs(acc.buffer_den()) * 2e-3);
  }
}

TEST(MergeCodecTest, RejectsUnknownCodecAndCorruption) {
  nn::Model model = models::mlp_spec({1, 8, 8, 4}, 24).build(3);
  const agg::ModelGeometry geo = agg::make_geometry(model);
  agg::StreamingAccumulator acc(&geo);
  std::vector<float> params(geo.param_count, 0.5F);
  std::vector<float> buffers(geo.buffer_count, 0.25F);
  acc.fold({0, params, buffers, {}}, {1.0, 1.0}, false);

  EXPECT_TRUE(agg::merge_codec_known(0));
  EXPECT_TRUE(agg::merge_codec_known(2));
  EXPECT_FALSE(agg::merge_codec_known(3));

  auto frame = acc.encode_frame(agg::MergeCodec::kF16);
  auto bad = frame;
  bad[4] = 7;  // unknown codec id
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(bad, &geo),
               std::runtime_error);
  auto flipped = frame;
  flipped[frame.size() / 2] ^= 0x40;
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(flipped, &geo),
               std::runtime_error);
  std::vector<std::uint8_t> shorter(frame.begin(), frame.end() - 8);
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(shorter, &geo),
               std::runtime_error);
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
  // codec bytes-saved column — byte-for-byte.
  obs::StragglerDashboard replayed;
  obs::replay_dashboard(events, replayed);
  std::ostringstream replay;
  replayed.render(replay);
  EXPECT_EQ(replay.str(), live.str());
}

}  // namespace
}  // namespace helios
