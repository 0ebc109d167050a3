#include "codec/codec.h"

#include <bit>
#include <cmath>
#include <string>

namespace helios::codec {
namespace {

constexpr std::uint8_t kZeroEscape = 0x80;  // -128: never a clamped q
constexpr int kZeroRunMin = 3;              // shortest run worth escaping
constexpr int kZeroRunMax = 255;            // u8 run length

const CodecInfo kCodecs[] = {
    {CodecId::kFp32, "fp32", 32, false},
    {CodecId::kFp16, "fp16", 16, false},
    {CodecId::kInt8PerNeuron, "int8pn", 8, true},
};

/// `Width` little-endian bytes at `p`.
template <std::size_t Width>
std::uint32_t load_le(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (std::size_t b = 0; b < Width; ++b) {
    v |= static_cast<std::uint32_t>(p[b]) << (8 * b);
  }
  return v;
}

template <std::size_t Width>
void store_le(std::uint8_t* p, std::uint32_t v) {
  for (std::size_t b = 0; b < Width; ++b) {
    p[b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

/// Reads an int8 stream byte by byte. Throws CodecError on overrun and
/// never reads past its span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t next() {
    if (at_ >= bytes_.size()) {
      throw CodecError("codec: packed stream truncated");
    }
    return bytes_[at_++];
  }

  std::size_t consumed() const { return at_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

std::uint32_t group_of(std::span<const std::uint32_t> groups, std::size_t i) {
  return groups.empty() ? 0U : groups[i];
}

/// clamp(lround(v / s), -127, +127) in double — half-away-from-zero, the
/// platform-stable rounding rule the header documents. s == 0 (an all-zero
/// group) maps everything to 0.
int int8_quantize(float v, float s) {
  if (!(s > 0.0f)) return 0;
  const long q =
      std::lround(static_cast<double>(v) / static_cast<double>(s));
  return q > 127 ? 127 : (q < -127 ? -127 : static_cast<int>(q));
}

float int8_dequantize(int q, float s) {
  return static_cast<float>(static_cast<double>(q) * static_cast<double>(s));
}

void check_plan(const QuantPlan& plan, std::span<const float> values,
                std::span<const std::uint32_t> groups) {
  const CodecInfo& info = codec_info(plan.id);
  if (!groups.empty() && groups.size() != values.size()) {
    throw CodecError("codec: group tags do not match the value stream");
  }
  if (info.scaled) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (group_of(groups, i) >= plan.scale_bits.size()) {
        throw CodecError("codec: value tagged with an unknown group");
      }
    }
  }
}

void reject_non_finite(std::span<const float> values) {
  for (float v : values) {
    if (!std::isfinite(v)) {
      throw CodecError("codec: non-finite value in payload");
    }
  }
}

/// One dequantized value (the decoder's exact arithmetic): fp16 round trip
/// for kFp16, scale-grid snap for int8pn, identity for kFp32.
float dequantize_one(const QuantPlan& plan, float value, std::uint32_t group) {
  const CodecInfo& info = codec_info(plan.id);
  if (info.scaled) {
    if (group >= plan.scale_bits.size()) {
      throw CodecError("codec: value tagged with an unknown group");
    }
    const float s = plan.scale(group);
    return int8_dequantize(int8_quantize(value, s), s);
  }
  if (plan.id == CodecId::kFp16) return fp16_to_float(fp16_from_float(value));
  return value;  // kFp32
}

}  // namespace

const CodecInfo& codec_info(CodecId id) {
  for (const CodecInfo& c : kCodecs) {
    if (c.id == id) return c;
  }
  throw CodecError("codec: unknown codec id " +
                   std::to_string(static_cast<std::uint32_t>(id)));
}

bool codec_known(std::uint32_t raw) {
  for (const CodecInfo& c : kCodecs) {
    if (static_cast<std::uint32_t>(c.id) == raw) return true;
  }
  return false;
}

const char* codec_name(CodecId id) { return codec_info(id).name; }

std::uint16_t fp16_from_float(float v) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(v);
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000U);
  const std::uint32_t abs = bits & 0x7FFFFFFFU;
  const std::int32_t exp = static_cast<std::int32_t>(abs >> 23) - 127;
  const std::uint32_t mant = abs & 0x007FFFFFU;
  if (exp > 15) {
    // Inf/NaN (rejected upstream) and everything past the fp16 range
    // saturate to the largest finite half, +-65504.
    return static_cast<std::uint16_t>(sign | 0x7BFFU);
  }
  std::uint32_t h;
  if (exp >= -14) {
    // Normal half: drop 13 mantissa bits with round-to-nearest-even; a
    // mantissa carry rolls into the exponent field arithmetically.
    const std::uint32_t lsb = (mant >> 13) & 1U;
    const std::uint32_t round = (mant >> 12) & 1U;
    const bool sticky = (mant & 0x0FFFU) != 0;
    std::uint32_t hm = mant >> 13;
    if (round && (sticky || lsb)) ++hm;
    h = (static_cast<std::uint32_t>(exp + 15) << 10) + hm;
    if (h >= 0x7C00U) h = 0x7BFFU;  // rounded up into Inf: saturate
  } else if (exp >= -25) {
    // Subnormal half: the implicit bit becomes explicit and the whole
    // significand shifts right, still rounding to nearest-even.
    const std::uint32_t m = mant | 0x00800000U;
    const unsigned shift = static_cast<unsigned>(13 + (-14 - exp));
    std::uint32_t hm = m >> shift;
    const std::uint32_t round = (m >> (shift - 1)) & 1U;
    const bool sticky = (m & ((1U << (shift - 1)) - 1U)) != 0;
    if (round && (sticky || (hm & 1U))) ++hm;
    h = hm;  // a carry lands exactly on the smallest normal half
  } else {
    h = 0;  // underflows to (signed) zero
  }
  return static_cast<std::uint16_t>(sign | h);
}

float fp16_to_float(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000U) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1FU;
  std::uint32_t mant = h & 0x03FFU;
  std::uint32_t f;
  if (exp == 0) {
    if (mant == 0) {
      f = sign;  // +-0
    } else {
      // Subnormal half: renormalize into a float.
      unsigned shift = 0;
      while ((mant & 0x0400U) == 0) {
        mant <<= 1;
        ++shift;
      }
      mant &= 0x03FFU;
      f = sign | ((113U - shift) << 23) | (mant << 13);
    }
  } else if (exp == 0x1FU) {
    f = sign | 0x7F800000U | (mant << 13);  // Inf/NaN (never emitted here)
  } else {
    f = sign | ((exp + 112U) << 23) | (mant << 13);
  }
  return std::bit_cast<float>(f);
}

QuantPlan plan_quantization(CodecId id, std::span<const float> values,
                            std::span<const std::uint32_t> groups,
                            std::size_t group_count) {
  const CodecInfo& info = codec_info(id);
  if (!groups.empty() && groups.size() != values.size()) {
    throw CodecError("codec: group tags do not match the value stream");
  }
  QuantPlan plan;
  plan.id = id;
  if (id == CodecId::kFp32) return plan;  // lossless: any bit pattern ships
  reject_non_finite(values);
  if (!info.scaled) return plan;
  if (group_count == 0 && !values.empty()) {
    throw CodecError("codec: scaled codec needs at least one group");
  }
  std::vector<float> max_abs(group_count, 0.0f);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const std::uint32_t g = group_of(groups, i);
    if (g >= group_count) {
      throw CodecError("codec: value tagged with an unknown group");
    }
    const float a = std::fabs(values[i]);
    if (a > max_abs[g]) max_abs[g] = a;
  }
  plan.scale_bits.resize(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    // The fp16-rounded scale is the canonical one — quantization and
    // dequantization both use the exact value that crosses the wire.
    plan.scale_bits[g] = fp16_from_float(
        static_cast<float>(static_cast<double>(max_abs[g]) / 127.0));
  }
  return plan;
}

std::size_t encode_values(const QuantPlan& plan, std::span<const float> values,
                          std::span<const std::uint32_t> groups,
                          std::vector<std::uint8_t>& out) {
  check_plan(plan, values, groups);
  const CodecInfo& info = codec_info(plan.id);
  const std::size_t start = out.size();
  if (info.scaled) {
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
  } else {
    out.resize(start + values.size() * (info.value_bits / 8));
    std::uint8_t* at = out.data() + start;
    if (plan.id == CodecId::kFp16) {
      for (float v : values) {
        store_le<2>(at, fp16_from_float(v));
        at += 2;
      }
    } else {
      for (float v : values) {
        store_le<4>(at, std::bit_cast<std::uint32_t>(v));
        at += 4;
      }
    }
  }
  return out.size() - start;
}

std::vector<float> decode_values(const QuantPlan& plan,
                                 std::span<const std::uint8_t> payload,
                                 std::span<const std::uint32_t> groups,
                                 std::size_t count) {
  if (!groups.empty() && groups.size() != count) {
    throw CodecError("codec: group tags do not match the value stream");
  }
  const CodecInfo& info = codec_info(plan.id);
  std::vector<float> values;
  values.reserve(count);
  ByteReader r(payload);
  if (info.scaled) {
    while (values.size() < count) {
      const std::uint8_t b = r.next();
      if (b == kZeroEscape) {
        const std::size_t run = r.next();
        if (run < static_cast<std::size_t>(kZeroRunMin) ||
            values.size() + run > count) {
          throw CodecError("codec: corrupt zero run");
        }
        values.insert(values.end(), run, 0.0f);
        continue;
      }
      const int q = static_cast<std::int8_t>(b);
      const std::uint32_t g = group_of(groups, values.size());
      if (g >= plan.scale_bits.size()) {
        throw CodecError("codec: value tagged with an unknown group");
      }
      values.push_back(int8_dequantize(q, plan.scale(g)));
    }
    if (r.consumed() != payload.size()) {
      throw CodecError("codec: packed stream has trailing bytes");
    }
    return values;
  }
  // Fixed width: the stream length alone says whether it is whole.
  const std::size_t width = info.value_bits / 8;
  if (payload.size() / width < count) {
    throw CodecError("codec: packed stream truncated");
  }
  if (payload.size() != count * width) {
    throw CodecError("codec: packed stream has trailing bytes");
  }
  values.resize(count);
  const std::uint8_t* at = payload.data();
  if (plan.id == CodecId::kFp16) {
    for (float& v : values) {
      v = fp16_to_float(static_cast<std::uint16_t>(load_le<2>(at)));
      at += 2;
    }
  } else {
    for (float& v : values) {
      v = std::bit_cast<float>(load_le<4>(at));
      at += 4;
    }
  }
  return values;
}

std::vector<float> dequantized_values(const QuantPlan& plan,
                                      std::span<const float> values,
                                      std::span<const std::uint32_t> groups) {
  check_plan(plan, values, groups);
  std::vector<float> out;
  out.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back(dequantize_one(plan, values[i], group_of(groups, i)));
  }
  return out;
}

std::size_t payload_bytes(const QuantPlan& plan, std::span<const float> values,
                          std::span<const std::uint32_t> groups) {
  check_plan(plan, values, groups);
  const CodecInfo& info = codec_info(plan.id);
  if (!info.scaled) return values.size() * info.value_bits / 8;
  std::size_t bytes = 0;
  int run = 0;
  auto flush = [&] {
    while (run >= kZeroRunMin) {
      const int chunk = run < kZeroRunMax ? run : kZeroRunMax;
      bytes += 2;
      run -= chunk;
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

}  // namespace helios::codec
