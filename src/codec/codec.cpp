#include "codec/codec.h"

#include <bit>
#include <cmath>
#include <limits>
#include <string>

namespace helios::codec {
namespace {

constexpr std::uint8_t kZeroEscape = 0x80;  // -128: never a clamped q
constexpr std::size_t kZeroRunMin = 3;      // shortest run worth escaping
constexpr std::size_t kZeroRunMax = 255;    // u8 run length

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
///
/// lround(x) is computed as the truncation of x + copysign(h, x), h the
/// largest double below 0.5: exact for every finite |x| < 2^31, and within a
/// group |x| <= max|v| / s stays below 191 (an fp16 scale rounds max|v| /
/// 127 down by at most a third). Adding h rather than 0.5 keeps x just below
/// a half step from rounding up; adding it to x at or past a half step
/// reaches the next integer. The rounding takes no libm call and no branch.
int int8_quantize(float v, float s) {
  if (!(s > 0.0f)) return 0;
  constexpr double kJustBelowHalf = 0.49999999999999994;  // 0.5 - 2^-54
  const double x = static_cast<double>(v) / static_cast<double>(s);
  const int q = static_cast<int>(x + std::copysign(kJustBelowHalf, x));
  return q > 127 ? 127 : (q < -127 ? -127 : q);
}

float int8_dequantize(int q, float s) {
  return static_cast<float>(static_cast<double>(q) * static_cast<double>(s));
}

/// Bytes the zero-run coding spends on a run of `run` zero codes: one
/// escape pair per full 255-run, then an escape pair for a remainder of at
/// least kZeroRunMin or the remainder's literal zero bytes.
std::size_t zero_run_bytes(std::size_t run) {
  const std::size_t rest = run % kZeroRunMax;
  return 2 * (run / kZeroRunMax) + (rest >= kZeroRunMin ? 2 : rest);
}

/// Writes the zero-run coding of a run of `run` zero codes at `at`.
std::uint8_t* put_zero_run(std::uint8_t* at, std::size_t run) {
  for (; run >= kZeroRunMax; run -= kZeroRunMax) {
    *at++ = kZeroEscape;
    *at++ = static_cast<std::uint8_t>(kZeroRunMax);
  }
  if (run >= kZeroRunMin) {
    *at++ = kZeroEscape;
    *at++ = static_cast<std::uint8_t>(run);
    return at;
  }
  for (; run > 0; --run) *at++ = 0;
  return at;
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

Quantized quantize(CodecId id, std::vector<float> values,
                   std::span<const std::uint32_t> groups,
                   std::size_t group_count) {
  const CodecInfo& info = codec_info(id);
  const std::size_t n = values.size();
  if (!groups.empty() && groups.size() != n) {
    throw CodecError("codec: group tags do not match the value stream");
  }
  Quantized q;
  q.plan.id = id;
  q.packed_bytes = n * (info.value_bits / 8);
  if (id == CodecId::kFp32) {
    q.values = std::move(values);  // lossless: any bit pattern ships
    return q;
  }
  if (!info.scaled) {
    for (float& v : values) {
      if (!std::isfinite(v)) {
        throw CodecError("codec: non-finite value in payload");
      }
      v = fp16_to_float(fp16_from_float(v));
    }
    q.values = std::move(values);
    return q;
  }
  if (group_count == 0 && n != 0) {
    throw CodecError("codec: scaled codec needs at least one group");
  }
  std::vector<float> max_abs(group_count, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t g = group_of(groups, i);
    if (g >= group_count) {
      throw CodecError("codec: value tagged with an unknown group");
    }
    const float a = std::fabs(values[i]);
    if (!(a <= std::numeric_limits<float>::max())) {
      throw CodecError("codec: non-finite value in payload");
    }
    if (a > max_abs[g]) max_abs[g] = a;
  }
  // The fp16-rounded scale is the canonical one — quantization and
  // dequantization both use the exact value that crosses the wire.
  q.plan.scale_bits.resize(group_count);
  std::vector<float> scale(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    q.plan.scale_bits[g] = fp16_from_float(
        static_cast<float>(static_cast<double>(max_abs[g]) / 127.0));
    scale[g] = fp16_to_float(q.plan.scale_bits[g]);
  }
  // The one quantization of each value: its code, its dequantized value
  // (in place) and its share of the zero-run coded size. Local spans: the
  // int8 stores could otherwise alias, and reload, every vector's pointers.
  q.codes.resize(n);
  const std::span<std::int8_t> codes(q.codes);
  const std::span<float> v(values);
  const std::span<const float> scales(scale);
  std::size_t bytes = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const float s = scales[group_of(groups, i)];
    const int code = int8_quantize(v[i], s);
    codes[i] = static_cast<std::int8_t>(code);
    v[i] = int8_dequantize(code, s);
    if (code == 0) {
      ++run;
    } else {
      bytes += zero_run_bytes(run) + 1;
      run = 0;
    }
  }
  q.packed_bytes = bytes + zero_run_bytes(run);
  q.values = std::move(values);
  return q;
}

std::size_t pack(const Quantized& q, std::vector<std::uint8_t>& out) {
  const CodecInfo& info = codec_info(q.plan.id);
  const std::size_t start = out.size();
  // Local spans: the byte stores could otherwise alias, and reload, the
  // vectors' pointers.
  const std::span<const std::int8_t> codes(q.codes);
  const std::span<const float> values(q.values);
  if (info.scaled) {
    // Zero-run coding never spends more than a byte per code.
    out.resize(start + codes.size());
    std::uint8_t* at = out.data() + start;
    std::size_t run = 0;
    for (const std::int8_t code : codes) {
      if (code == 0) {
        ++run;
        continue;
      }
      if (run != 0) {
        at = put_zero_run(at, run);
        run = 0;
      }
      *at++ = static_cast<std::uint8_t>(code);
    }
    at = put_zero_run(at, run);
    out.resize(static_cast<std::size_t>(at - out.data()));
    return out.size() - start;
  }
  out.resize(start + values.size() * (info.value_bits / 8));
  std::uint8_t* at = out.data() + start;
  if (q.plan.id == CodecId::kFp16) {
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
  if (info.scaled) {
    std::vector<float> values(count);  // zero runs are already in place
    std::vector<float> scale(plan.scale_bits.size());
    for (std::size_t g = 0; g < scale.size(); ++g) {
      scale[g] = fp16_to_float(plan.scale_bits[g]);
    }
    ByteReader r(payload);
    std::size_t i = 0;
    while (i < count) {
      const std::uint8_t b = r.next();
      if (b == kZeroEscape) {
        const std::size_t run = r.next();
        if (run < kZeroRunMin || run > count - i) {
          throw CodecError("codec: corrupt zero run");
        }
        i += run;
        continue;
      }
      const std::uint32_t g = group_of(groups, i);
      if (g >= scale.size()) {
        throw CodecError("codec: value tagged with an unknown group");
      }
      values[i++] = int8_dequantize(static_cast<std::int8_t>(b), scale[g]);
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
  std::vector<float> values(count);
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

}  // namespace helios::codec
