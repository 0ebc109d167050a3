// Bit-identity oracles for the int8pn and fp16 frame encoder and decoder.
//
// * LeNetFrameDigestTest pins FNV-1a digests of LeNet-size frames
//   (lenet_spec({1, 16, 16, 10}): conv filters and their biases interleave,
//   so scale-group ids are not monotone in flat order), of the encoder's
//   CodecResult::dequantized and of the decoded parameters — fp32, fp16 and
//   int8pn; dense, masked, with and without the base, and top-k sparse.
// * WireOracleTest compares net::encode_frame_auto, byte for byte and
//   CodecResult for CodecResult, against the multi-pass encoder it replaced,
//   kept below as the reference: sort + lower_bound scale groups, then plan
//   -> dequantize -> size -> pack, each pass quantizing every value again.
//   The streams are adversarial: exact half steps (k + 0.5)·s, values past
//   ±127 once fp16 rounds a scale down, all-zero and underflowing groups,
//   subnormal fp16 scales, zero runs at the escape coding's edges, and empty,
//   one-neuron and full masks with and without the base.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "models/zoo.h"
#include "net/wire.h"
#include "test_support.h"
#include "util/rng.h"

namespace helios {
namespace {

using codec::CodecId;

// ---- The reference: the multi-pass encoder ---------------------------------

namespace reference {

constexpr std::uint8_t kZeroEscape = 0x80;
constexpr int kZeroRunMin = 3;
constexpr int kZeroRunMax = 255;

struct Plan {
  CodecId id = CodecId::kFp32;
  std::vector<std::uint16_t> scale_bits;

  float scale(std::size_t group) const {
    return codec::fp16_to_float(scale_bits.at(group));
  }
};

std::uint32_t group_of(std::span<const std::uint32_t> groups, std::size_t i) {
  return groups.empty() ? 0U : groups[i];
}

int int8_quantize(float v, float s) {
  if (!(s > 0.0F)) return 0;
  const long q =
      std::lround(static_cast<double>(v) / static_cast<double>(s));
  return q > 127 ? 127 : (q < -127 ? -127 : static_cast<int>(q));
}

float int8_dequantize(int q, float s) {
  return static_cast<float>(static_cast<double>(q) * static_cast<double>(s));
}

void check_plan(const Plan& plan, std::span<const float> values,
                std::span<const std::uint32_t> groups) {
  if (!groups.empty() && groups.size() != values.size()) {
    throw codec::CodecError("codec: group tags do not match the value stream");
  }
  if (codec::codec_info(plan.id).scaled) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (group_of(groups, i) >= plan.scale_bits.size()) {
        throw codec::CodecError("codec: value tagged with an unknown group");
      }
    }
  }
}

Plan plan_quantization(CodecId id, std::span<const float> values,
                       std::span<const std::uint32_t> groups,
                       std::size_t group_count) {
  const codec::CodecInfo& info = codec::codec_info(id);
  Plan plan;
  plan.id = id;
  if (id == CodecId::kFp32) return plan;
  for (float v : values) {
    if (!std::isfinite(v)) {
      throw codec::CodecError("codec: non-finite value in payload");
    }
  }
  if (!info.scaled) return plan;
  if (group_count == 0 && !values.empty()) {
    throw codec::CodecError("codec: scaled codec needs at least one group");
  }
  std::vector<float> max_abs(group_count, 0.0F);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint32_t g = group_of(groups, i);
    if (g >= group_count) {
      throw codec::CodecError("codec: value tagged with an unknown group");
    }
    const float a = std::fabs(values[i]);
    if (a > max_abs[g]) max_abs[g] = a;
  }
  plan.scale_bits.resize(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    plan.scale_bits[g] = codec::fp16_from_float(
        static_cast<float>(static_cast<double>(max_abs[g]) / 127.0));
  }
  return plan;
}

float dequantize_one(const Plan& plan, float value, std::uint32_t group) {
  if (codec::codec_info(plan.id).scaled) {
    const float s = plan.scale(group);
    return int8_dequantize(int8_quantize(value, s), s);
  }
  if (plan.id == CodecId::kFp16) {
    return codec::fp16_to_float(codec::fp16_from_float(value));
  }
  return value;
}

std::vector<float> dequantized_values(const Plan& plan,
                                      std::span<const float> values,
                                      std::span<const std::uint32_t> groups) {
  check_plan(plan, values, groups);
  std::vector<float> out;
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back(dequantize_one(plan, values[i], group_of(groups, i)));
  }
  return out;
}

std::size_t payload_bytes(const Plan& plan, std::span<const float> values,
                          std::span<const std::uint32_t> groups) {
  check_plan(plan, values, groups);
  const codec::CodecInfo& info = codec::codec_info(plan.id);
  if (!info.scaled) return values.size() * info.value_bits / 8;
  std::size_t bytes = 0;
  int run = 0;
  auto flush = [&] {
    while (run >= kZeroRunMin) {
      run -= run < kZeroRunMax ? run : kZeroRunMax;
      bytes += 2;
    }
    bytes += static_cast<std::size_t>(run);
    run = 0;
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (int8_quantize(values[i], plan.scale(group_of(groups, i))) == 0) {
      ++run;
    } else {
      flush();
      ++bytes;
    }
  }
  flush();
  return bytes;
}

void encode_values(const Plan& plan, std::span<const float> values,
                   std::span<const std::uint32_t> groups,
                   std::vector<std::uint8_t>& out) {
  check_plan(plan, values, groups);
  if (codec::codec_info(plan.id).scaled) {
    int run = 0;
    auto flush = [&] {
      while (run >= kZeroRunMin) {
        const int chunk = run < kZeroRunMax ? run : kZeroRunMax;
        out.push_back(kZeroEscape);
        out.push_back(static_cast<std::uint8_t>(chunk));
        run -= chunk;
      }
      out.insert(out.end(), static_cast<std::size_t>(run), std::uint8_t{0});
      run = 0;
    };
    for (std::size_t i = 0; i < values.size(); ++i) {
      const int q =
          int8_quantize(values[i], plan.scale(group_of(groups, i)));
      if (q == 0) {
        ++run;
        continue;
      }
      flush();
      out.push_back(static_cast<std::uint8_t>(q));
    }
    flush();
    return;
  }
  for (float v : values) {
    const std::uint32_t bits = plan.id == CodecId::kFp16
                                   ? codec::fp16_from_float(v)
                                   : std::bit_cast<std::uint32_t>(v);
    for (unsigned b = 0; b < codec::codec_info(plan.id).value_bits / 8; ++b) {
      out.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
    }
  }
}

struct GroupTags {
  std::vector<std::uint32_t> keys;
  std::vector<std::uint32_t> groups;
};

GroupTags derive_groups(const net::WireLayout& layout,
                        std::span<const std::uint32_t> ship, bool scaled) {
  GroupTags t;
  if (!scaled) return t;
  std::vector<std::uint32_t> raw;
  for (std::uint32_t f : ship) raw.push_back(layout.neuron_of[f]);
  t.keys = raw;
  std::sort(t.keys.begin(), t.keys.end());
  t.keys.erase(std::unique(t.keys.begin(), t.keys.end()), t.keys.end());
  for (std::uint32_t k : raw) {
    t.groups.push_back(static_cast<std::uint32_t>(
        std::lower_bound(t.keys.begin(), t.keys.end(), k) - t.keys.begin()));
  }
  return t;
}

struct ValueStream {
  std::vector<std::uint32_t> ship;
  std::vector<float> values;
  std::vector<std::uint32_t> groups;
  Plan plan;
};

std::size_t frame_overhead(const net::WireLayout& layout, bool has_mask,
                           std::size_t scale_count) {
  return net::kHeaderBytes +
         net::mask_wire_bytes(has_mask ? layout.neuron_total : 0) +
         2 * scale_count + layout.buffer_count * sizeof(float) +
         net::kTrailerBytes;
}

void put(std::vector<std::uint8_t>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

/// encode_frame_auto as it stood before the single pass.
std::vector<std::uint8_t> encode_frame(const net::WireMessage& msg,
                                       std::span<const float> base,
                                       const net::WireLayout& layout,
                                       CodecId codec,
                                       net::CodecResult* result) {
  const codec::CodecInfo& info = codec::codec_info(codec);
  const bool lossless = codec == CodecId::kFp32;
  const bool has_base = base.size() == layout.param_count;
  const bool has_mask = !msg.neuron_mask.empty();
  const bool delta = has_base && !lossless;

  ValueStream dense;
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    if (!net::entry_shipped(layout, msg.neuron_mask, f)) continue;
    dense.ship.push_back(static_cast<std::uint32_t>(f));
    dense.values.push_back(delta ? msg.params[f] - base[f] : msg.params[f]);
  }
  GroupTags tags = derive_groups(layout, dense.ship, info.scaled);
  dense.groups = std::move(tags.groups);
  dense.plan =
      reference::plan_quantization(codec, dense.values, dense.groups,
                                   tags.keys.size());
  const std::vector<float> dq =
      lossless ? std::vector<float>()
               : dequantized_values(dense.plan, dense.values, dense.groups);
  const std::span<const float> received =
      lossless ? std::span<const float>(dense.values) : std::span(dq);
  std::size_t packed = payload_bytes(dense.plan, dense.values, dense.groups);
  const std::size_t dense_total =
      frame_overhead(layout, has_mask, dense.plan.scale_bits.size()) + packed;

  bool use_sparse = false;
  ValueStream sparse;
  if (has_base) {
    const auto kept = [&](std::size_t i) {
      return received[i] != (delta ? 0.0F : base[dense.ship[i]]);
    };
    std::vector<std::uint8_t> used(dense.plan.scale_bits.size(), 0);
    std::size_t kept_count = 0;
    for (std::size_t i = 0; i < received.size(); ++i) {
      if (!kept(i)) continue;
      ++kept_count;
      if (!dense.groups.empty()) used[dense.groups[i]] = 1;
    }
    const auto kept_scales =
        static_cast<std::size_t>(std::count(used.begin(), used.end(), 1));
    const std::size_t sparse_packed = kept_count * info.value_bits / 8;
    use_sparse = frame_overhead(layout, has_mask, kept_scales) +
                     kept_count * sizeof(std::uint32_t) + sparse_packed <
                 dense_total;
    if (use_sparse) {
      packed = sparse_packed;
      sparse.plan.id = codec;
      std::vector<std::uint32_t> sparse_group(used.size(), 0);
      for (std::size_t g = 0; g < used.size(); ++g) {
        if (used[g] == 0) continue;
        sparse_group[g] =
            static_cast<std::uint32_t>(sparse.plan.scale_bits.size());
        sparse.plan.scale_bits.push_back(dense.plan.scale_bits[g]);
      }
      for (std::size_t i = 0; i < received.size(); ++i) {
        if (!kept(i)) continue;
        sparse.ship.push_back(dense.ship[i]);
        sparse.values.push_back(dense.values[i]);
        if (!dense.groups.empty()) {
          sparse.groups.push_back(sparse_group[dense.groups[i]]);
        }
      }
    }
  }
  const ValueStream& s = use_sparse ? sparse : dense;

  std::vector<std::uint8_t> out;
  std::uint16_t flags = has_mask ? net::kFlagHasMask : 0;
  if (delta) flags |= net::kFlagDelta;
  if (use_sparse) flags |= net::kFlagSparse;
  put(out, net::kWireMagic, 4);
  put(out, net::kWireVersion, 2);
  put(out, flags, 2);
  put(out, std::bit_cast<std::uint32_t>(msg.client_id), 4);
  put(out, has_mask ? static_cast<std::uint32_t>(layout.neuron_total) : 0, 4);
  put(out, layout.param_count, 8);
  put(out, layout.buffer_count, 8);
  put(out, s.values.size(), 8);
  put(out, msg.sample_count, 8);
  put(out, std::bit_cast<std::uint64_t>(msg.mean_loss), 8);
  put(out, static_cast<std::uint32_t>(codec), 4);
  put(out, static_cast<std::uint32_t>(packed), 4);
  if (has_mask) {
    for (std::size_t b = 0; b < net::mask_wire_bytes(layout.neuron_total);
         ++b) {
      std::uint8_t byte = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        const std::size_t i = b * 8 + bit;
        if (i < msg.neuron_mask.size() && msg.neuron_mask[i] != 0) {
          byte |= static_cast<std::uint8_t>(1U << bit);
        }
      }
      out.push_back(byte);
    }
  }
  if (use_sparse) {
    for (std::uint32_t f : s.ship) put(out, f, 4);
  }
  for (std::uint16_t bits : s.plan.scale_bits) put(out, bits, 2);
  encode_values(s.plan, s.values, s.groups, out);
  for (float v : msg.buffers) put(out, std::bit_cast<std::uint32_t>(v), 4);
  put(out, net::crc32(out), 4);

  if (result != nullptr) {
    result->sparse = use_sparse;
    result->dequantized.clear();
    if (!lossless) {
      if (delta) {
        result->dequantized.assign(base.begin(), base.end());
      } else {
        result->dequantized.assign(layout.param_count, 0.0F);
      }
      for (std::size_t i = 0; i < dense.ship.size(); ++i) {
        const std::uint32_t f = dense.ship[i];
        result->dequantized[f] = delta ? base[f] + dq[i] : dq[i];
      }
    }
  }
  return out;
}

}  // namespace reference

// ---- LeNet-size updates ----------------------------------------------------

std::uint64_t digest(std::span<const float> values) {
  return testing::fnv1a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(values.data()),
      values.size_bytes()));
}

/// A LeNet update on 16x16 inputs: a random base and, per scale group, a
/// delta of its own magnitude with a fifth of the entries left at the base.
struct LeNetUpdate {
  nn::Model model;
  net::WireLayout layout;
  std::vector<float> base;
  std::vector<float> params;
  std::vector<float> buffers;

  explicit LeNetUpdate(std::uint64_t seed)
      : model(models::lenet_spec({1, 16, 16, 10}).build(seed)),
        layout(net::make_wire_layout(model)) {
    util::Rng rng(seed * 131 + 5);
    const auto groups = static_cast<std::size_t>(layout.neuron_total) + 1;
    std::vector<double> magnitude(groups);
    for (double& m : magnitude) m = std::pow(10.0, rng.uniform(-5.0, -1.0));
    base.resize(layout.param_count);
    params.resize(layout.param_count);
    buffers.resize(layout.buffer_count);
    for (std::size_t f = 0; f < layout.param_count; ++f) {
      base[f] = static_cast<float>(rng.normal() * 0.1);
      const std::uint32_t n = layout.neuron_of[f];
      const double m =
          magnitude[n == net::WireLayout::kCommonParam ? groups - 1 : n];
      params[f] = rng.uniform() < 0.2
                      ? base[f]
                      : base[f] + static_cast<float>(rng.normal() * m);
    }
    for (float& v : buffers) v = static_cast<float>(rng.normal());
  }

  void freeze_unmasked(std::span<const std::uint8_t> mask) {
    if (mask.empty()) return;
    for (std::size_t f = 0; f < layout.param_count; ++f) {
      if (!net::entry_shipped(layout, mask, f)) params[f] = base[f];
    }
  }

  net::WireMessage message(std::span<const std::uint8_t> mask) const {
    net::WireMessage m;
    m.client_id = 7;
    m.sample_count = 321;
    m.mean_loss = 1.25;
    m.params = params;
    m.buffers = buffers;
    m.neuron_mask = mask;
    return m;
  }
};

struct LeNetCase {
  const char* name;
  CodecId codec;
  bool masked;     // every third neuron off, frozen at the base
  bool topk;       // all but every 997th entry reverted to the base
  bool with_base;  // encoded against the base (delta-coded when lossy)
};

struct LeNetEncode {
  LeNetUpdate u{5};
  std::vector<std::uint8_t> mask;
  net::CodecResult result;
  std::vector<std::uint8_t> frame;
  std::vector<float> decoded;

  explicit LeNetEncode(const LeNetCase& c) {
    if (c.masked) {
      mask.resize(static_cast<std::size_t>(u.layout.neuron_total));
      for (std::size_t j = 0; j < mask.size(); ++j) mask[j] = j % 3 != 0;
      u.freeze_unmasked(mask);
    }
    if (c.topk) {
      for (std::size_t f = 0; f < u.params.size(); ++f) {
        if (f % 997 != 0) u.params[f] = u.base[f];
      }
    }
    const std::span<const float> base =
        c.with_base ? std::span<const float>(u.base) : std::span<const float>();
    frame = net::encode_frame_auto(u.message(mask), base, u.layout, c.codec,
                                   &result);
    decoded = net::decode_frame(frame, u.layout, u.base).params;
  }
};

// Recorded at 172cdc4, before the single pass; never re-record. A mismatch
// means frames, the sender's dequantized mirror or decoded parameters
// changed.
TEST(LeNetFrameDigestTest, FramesMirrorsAndDecodesAreStable) {
  struct Pinned {
    LeNetCase c;
    bool sparse;
    std::size_t bytes;
    std::uint64_t frame;
    std::uint64_t mirror;   // CodecResult::dequantized (empty for fp32)
    std::uint64_t decoded;  // decode_frame(...).params
  };
  constexpr CodecId kF32 = CodecId::kFp32;
  constexpr CodecId kF16 = CodecId::kFp16;
  constexpr CodecId kI8 = CodecId::kInt8PerNeuron;
  constexpr std::uint64_t kEmpty = 0xcbf29ce484222325ULL;  // FNV-1a of ""
  // name, codec, masked, top-k, with base | sparse, bytes, digests
  const Pinned pinned[] = {
      {{"fp32_dense", kF32, false, false, false}, false, 85612,
       0x6ecfcbc2957085caULL, kEmpty, 0xb91316d7bbd33e45ULL},
      {{"fp32_masked_base", kF32, true, false, true}, false, 57857,
       0xf0061090fca55036ULL, kEmpty, 0xadf8a996186a3272ULL},
      {{"fp32_sparse", kF32, false, true, true}, true, 204,
       0x21f4f3189e820ed2ULL, kEmpty, 0x61d8f59e350d24aaULL},
      {{"fp32_sparse_masked", kF32, true, true, true}, true, 193,
       0xebb114e18447e717ULL, kEmpty, 0x9e0f84f99e8d30d8ULL},
      {{"fp16_dense", kF16, false, false, false}, false, 42840,
       0x3df28eddf6c0f386ULL, 0x5319eb44c5be3c91ULL, 0x5319eb44c5be3c91ULL},
      {{"fp16_masked", kF16, true, false, false}, false, 28977,
       0x8af9db82612bea73ULL, 0x122ab8c94901cf3fULL, 0x4d6327176fa51a7eULL},
      {{"fp16_dense_base", kF16, false, false, true}, false, 42840,
       0xbd66df733573f5dbULL, 0xb032d362eb23e37aULL, 0xb032d362eb23e37aULL},
      {{"fp16_masked_base", kF16, true, false, true}, false, 28977,
       0x1474bafe68925325ULL, 0x9c5a3a3961175391ULL, 0x9c5a3a3961175391ULL},
      {{"fp16_sparse", kF16, false, true, true}, true, 170,
       0xb4358cd95e30ab43ULL, 0xd37dc4bbfa509a01ULL, 0xd37dc4bbfa509a01ULL},
      {{"fp16_sparse_masked", kF16, true, true, true}, true, 169,
       0x4ae0ea00ade862cdULL, 0x76ed16bb89d4a33bULL, 0x76ed16bb89d4a33bULL},
      {{"int8pn_dense", kI8, false, false, false}, false, 21908,
       0xf83a5f4c3349b171ULL, 0xcd2d0cbac571a1adULL, 0xcd2d0cbac571a1adULL},
      {{"int8pn_masked", kI8, true, false, false}, false, 14839,
       0x73835d9a8c92da90ULL, 0x36ed1f7826af2e07ULL, 0xb7cf3e1dbb3782b2ULL},
      {{"int8pn_dense_base", kI8, false, false, true}, false, 21719,
       0x3a3855d1ec992bd2ULL, 0x8fa0048a59b40417ULL, 0x8fa0048a59b40417ULL},
      {{"int8pn_masked_base", kI8, true, false, true}, false, 14714,
       0x414371663863c696ULL, 0x4712faf3672be3bbULL, 0x4712faf3672be3bbULL},
      {{"int8pn_sparse", kI8, false, true, true}, true, 187,
       0xb5ba1dd7561c4253ULL, 0x052648693c459b33ULL, 0x052648693c459b33ULL},
      {{"int8pn_sparse_masked", kI8, true, true, true}, true, 181,
       0xd60f5da0bbcac0b0ULL, 0xbd32644bf01b90dfULL, 0xbd32644bf01b90dfULL},
  };
  for (const Pinned& p : pinned) {
    const LeNetEncode e(p.c);
    EXPECT_EQ(e.result.sparse, p.sparse) << p.c.name;
    EXPECT_EQ(e.frame.size(), p.bytes) << p.c.name;
    EXPECT_EQ(testing::fnv1a(e.frame), p.frame) << p.c.name;
    EXPECT_EQ(digest(e.result.dequantized), p.mirror) << p.c.name;
    EXPECT_EQ(digest(e.decoded), p.decoded) << p.c.name;
  }
}

// ---- The single pass against the reference ---------------------------------

/// Encodes `msg` with the encoder and the reference; frames and CodecResults
/// must match bit for bit, and a lossy frame must decode to the mirror.
/// Returns whether the frame is sparse.
bool expect_matches_reference(const net::WireMessage& msg,
                              std::span<const float> base,
                              const net::WireLayout& layout, CodecId codec,
                              const std::string& what) {
  net::CodecResult got;
  net::CodecResult want;
  const std::vector<std::uint8_t> frame =
      net::encode_frame_auto(msg, base, layout, codec, &got);
  const std::vector<std::uint8_t> ref =
      reference::encode_frame(msg, base, layout, codec, &want);
  EXPECT_EQ(frame.size(), ref.size()) << what;
  EXPECT_TRUE(testing::bitwise_equal(frame, ref)) << what;
  EXPECT_EQ(got.sparse, want.sparse) << what;
  EXPECT_TRUE(testing::bitwise_equal(got.dequantized, want.dequantized))
      << what;
  if (codec == CodecId::kFp32) return got.sparse;
  // Without a base the unshipped entries decode from the decoder's own
  // snapshot; the mirror holds zeros there.
  const std::vector<float> zeros(layout.param_count, 0.0F);
  const net::DecodedMessage d =
      net::decode_frame(frame, layout, base.empty() ? zeros : base);
  EXPECT_TRUE(testing::bitwise_equal(d.params, got.dequantized)) << what;
  return got.sparse;
}

std::size_t slot_of(const net::WireLayout& layout, std::size_t f) {
  const std::uint32_t n = layout.neuron_of[f];
  return n == net::WireLayout::kCommonParam
             ? static_cast<std::size_t>(layout.neuron_total)
             : n;
}

float half_scale(float max_abs) {
  return codec::fp16_to_float(codec::fp16_from_float(
      static_cast<float>(static_cast<double>(max_abs) / 127.0)));
}

/// An adversarial delta on `layout`, shaped group by group (a value's
/// scale group is its owning neuron, or the common group). Every group's
/// first entry holds its max |delta| M, so the group's scale is
/// s = fp16(M / 127) exactly; 15% of the other entries are exact zeros.
std::vector<float> adversarial_delta(const net::WireLayout& layout,
                                     util::Rng& rng) {
  enum Shape { kRandom, kHalfSteps, kSubnormal, kAllZero, kUnderflow, kCount };
  const auto slots = static_cast<std::size_t>(layout.neuron_total) + 1;
  std::vector<int> shape(slots);
  std::vector<float> max_abs(slots);
  for (std::size_t g = 0; g < slots; ++g) {
    shape[g] = static_cast<int>(rng.uniform_int(kCount));
    switch (shape[g]) {
      case kRandom:
        max_abs[g] = static_cast<float>(std::pow(10.0, rng.uniform(-4, 0)));
        break;
      case kHalfSteps:
        max_abs[g] = static_cast<float>(std::pow(10.0, rng.uniform(-3, 1)));
        break;
      case kSubnormal:  // M / 127 in the fp16 subnormal range
        max_abs[g] = static_cast<float>(127.0 *
                                        std::exp2(rng.uniform(-25.0, -14.0)));
        break;
      case kUnderflow:  // M / 127 rounds to a zero fp16 scale
        max_abs[g] =
            static_cast<float>(127.0 * std::exp2(rng.uniform(-40.0, -25.0)));
        break;
      default:
        max_abs[g] = 0.0F;
        break;
    }
  }
  std::vector<float> delta(layout.param_count, 0.0F);
  std::vector<std::uint8_t> seen(slots, 0);
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    const std::size_t g = slot_of(layout, f);
    const float m = max_abs[g];
    const float sign = rng.uniform() < 0.5 ? -1.0F : 1.0F;
    if (seen[g] == 0) {
      seen[g] = 1;
      delta[f] = sign * m;
      continue;
    }
    if (rng.uniform() < 0.15) continue;
    const float s = half_scale(m);
    float v = 0.0F;
    switch (shape[g]) {
      case kRandom:
        v = static_cast<float>(rng.uniform(-1.0, 1.0)) * m;
        break;
      case kHalfSteps:
      case kSubnormal:
        // (k + 0.5)·s is exact in float. A subnormal scale can sit well
        // below M / 127, so k runs past 127 there and the clamp engages.
        v = (static_cast<float>(rng.uniform_int(
                 shape[g] == kHalfSteps ? 127 : 200)) +
             0.5F) *
            s;
        v = sign * std::min(v, m);
        break;
      case kUnderflow:
        v = static_cast<float>(rng.uniform(-1.0, 1.0)) * m;
        break;
      default:
        break;
    }
    delta[f] = v;
  }
  return delta;
}

struct OracleMasks {
  std::vector<std::vector<std::uint8_t>> masks;
  std::vector<std::string> names;

  OracleMasks(const net::WireLayout& layout, util::Rng& rng) {
    const auto m = static_cast<std::size_t>(layout.neuron_total);
    add("none", {});
    add("empty", std::vector<std::uint8_t>(m, 0));
    std::vector<std::uint8_t> one(m, 0);
    one[m / 3] = 1;
    add("one", one);
    add("full", std::vector<std::uint8_t>(m, 1));
    std::vector<std::uint8_t> part(m);
    for (auto& b : part) b = rng.uniform() < 0.6 ? 1 : 0;
    add("random", part);
  }

  void add(const char* name, std::vector<std::uint8_t> mask) {
    names.emplace_back(name);
    masks.push_back(std::move(mask));
  }
};

/// Runs `delta` through every codec, mask and base option: no base
/// (absolute values), a zero base (the deltas ship exactly as built) and a
/// random base. Entries a mask leaves out are frozen at the base. Returns
/// the number of sparse int8pn frames.
int sweep(const LeNetUpdate& u, const std::vector<float>& delta,
           util::Rng& rng, const std::string& what) {
  const OracleMasks masks(u.layout, rng);
  const std::vector<float> zero_base(u.layout.param_count, 0.0F);
  int sparse_int8 = 0;
  for (CodecId codec :
       {CodecId::kFp32, CodecId::kFp16, CodecId::kInt8PerNeuron}) {
    for (std::size_t mi = 0; mi < masks.masks.size(); ++mi) {
      const std::vector<std::uint8_t>& mask = masks.masks[mi];
      for (int b = 0; b < 3; ++b) {
        const std::vector<float>& base = b == 2 ? u.base : zero_base;
        std::vector<float> params(u.layout.param_count);
        for (std::size_t f = 0; f < params.size(); ++f) {
          params[f] = net::entry_shipped(u.layout, mask, f)
                          ? base[f] + delta[f]
                          : base[f];
        }
        net::WireMessage msg = u.message(mask);
        msg.params = params;
        const std::span<const float> enc_base =
            b == 0 ? std::span<const float>() : std::span<const float>(base);
        const bool sparse = expect_matches_reference(
            msg, enc_base, u.layout, codec,
            what + " " + codec::codec_name(codec) + " mask=" +
                masks.names[mi] + " base=" + std::to_string(b));
        sparse_int8 += sparse && codec == CodecId::kInt8PerNeuron;
      }
    }
  }
  return sparse_int8;
}

TEST(WireOracleTest, AdversarialGroupsMatchTheMultiPassEncoder) {
  const LeNetUpdate u(11);
  util::Rng rng(0x0AC1E);
  for (int trial = 0; trial < 4; ++trial) {
    sweep(u, adversarial_delta(u.layout, rng), rng,
          "trial " + std::to_string(trial));
  }
}

TEST(WireOracleTest, TopKDeltasRenumberTheSparseScales) {
  // Most entries at the base: the sparse frame wins and ships only the
  // scales of the groups a kept value uses.
  const LeNetUpdate u(12);
  util::Rng rng(0x5BA25E);
  int sparse_int8 = 0;
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<float> delta = adversarial_delta(u.layout, rng);
    const std::uint64_t stride = 50 + 300 * static_cast<std::uint64_t>(trial);
    for (std::size_t f = 0; f < delta.size(); ++f) {
      if (rng.uniform_int(stride) != 0) delta[f] = 0.0F;
    }
    sparse_int8 += sweep(u, delta, rng, "top-k trial " + std::to_string(trial));
  }
  EXPECT_GT(sparse_int8, 0);
}

TEST(WireOracleTest, ZeroRunsAtTheEscapeEdges) {
  // Runs of exact zeros (and of values that quantize to zero) of every
  // length around the escape threshold (3) and the u8 run cap (255), in
  // flat order, between values that quantize to |q| >= 63.
  const LeNetUpdate u(13);
  util::Rng rng(0x2E20);
  const std::size_t lengths[] = {1,   2,   3,   4,   254, 255, 256, 257,
                                 258, 509, 510, 511, 512, 513, 765, 766};
  for (bool tiny : {false, true}) {
    std::vector<float> delta(u.layout.param_count);
    for (float& v : delta) {
      v = static_cast<float>(rng.uniform(0.5, 1.0)) *
          (rng.uniform() < 0.5 ? -1.0F : 1.0F);
    }
    // A run at the very start and one at the very end too.
    std::size_t at = 0;
    for (std::size_t rep = 0; rep < 2; ++rep) {
      for (std::size_t len : lengths) {
        for (std::size_t k = 0; k < len && at < delta.size(); ++k, ++at) {
          delta[at] = tiny ? 1e-5F : 0.0F;
        }
        at += 1 + rng.uniform_int(3);
      }
    }
    std::fill(delta.end() - 300, delta.end(), 0.0F);
    sweep(u, delta, rng, tiny ? "tiny runs" : "zero runs");
  }
}

TEST(WireOracleTest, NonFiniteValuesThrowOnBothEncoders) {
  const LeNetUpdate u(14);
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity()}) {
    for (std::size_t at : {std::size_t{0}, u.layout.param_count / 2,
                           u.layout.param_count - 1}) {
      std::vector<float> params = u.params;
      params[at] = bad;
      net::WireMessage msg = u.message({});
      msg.params = params;
      for (CodecId codec : {CodecId::kFp16, CodecId::kInt8PerNeuron}) {
        for (bool with_base : {false, true}) {
          const std::span<const float> base =
              with_base ? std::span<const float>(u.base)
                        : std::span<const float>();
          EXPECT_THROW(
              net::encode_frame_auto(msg, base, u.layout, codec, nullptr),
              codec::CodecError);
          EXPECT_THROW(
              reference::encode_frame(msg, base, u.layout, codec, nullptr),
              codec::CodecError);
        }
      }
    }
  }
}

}  // namespace
}  // namespace helios
