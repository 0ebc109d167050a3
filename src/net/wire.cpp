#include "net/wire.h"

#include <algorithm>
#include <array>
#include <bit>

#if HELIOS_HAVE_PCLMUL
#include "net/crc32_fold.h"
#include "util/cpuid.h"
#endif

namespace helios::net {
namespace {

// ---- CRC32 (IEEE 802.3, reflected) ----------------------------------------

/// Slicing-by-4 tables: tables[0] is the byte-wise table, and tables[k]
/// advances a tables[k - 1] entry by one more zero byte.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 4>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
    }
  }
  return t;
}

/// Advances the running CRC register over `bytes`, four bytes per step:
/// the tail of a folded buffer, and every buffer on CPUs without PCLMULQDQ.
std::uint32_t crc32_update(std::uint32_t c,
                           std::span<const std::uint8_t> bytes) {
  static const CrcTables t = make_crc_tables();
  std::size_t i = 0;
  for (; i + 4 <= bytes.size(); i += 4) {
    c ^= static_cast<std::uint32_t>(bytes[i]) |
         static_cast<std::uint32_t>(bytes[i + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[i + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[i + 3]) << 24;
    c = t[3][c & 0xFFU] ^ t[2][(c >> 8) & 0xFFU] ^ t[1][(c >> 16) & 0xFFU] ^
        t[0][c >> 24];
  }
  for (; i < bytes.size(); ++i) {
    c = t[0][(c ^ bytes[i]) & 0xFFU] ^ (c >> 8);
  }
  return c;
}

// ---- Little-endian byte IO -------------------------------------------------

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint16_t u16() {
    require(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        bytes_[pos_] | (static_cast<std::uint16_t>(bytes_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    require(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    require(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(bytes_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::span<const std::uint8_t> raw(std::size_t n) {
    require(n);
    auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  std::size_t pos() const { return pos_; }

 private:
  void require(std::size_t n) const {
    if (pos_ + n > bytes_.size()) throw WireError("wire: truncated frame");
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void append_packed_mask(std::vector<std::uint8_t>& out,
                        std::span<const std::uint8_t> mask) {
  const std::size_t bytes = mask_wire_bytes(static_cast<int>(mask.size()));
  for (std::size_t b = 0; b < bytes; ++b) {
    std::uint8_t packed = 0;
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const std::size_t i = b * 8 + bit;
      if (i < mask.size() && mask[i] != 0) {
        packed |= static_cast<std::uint8_t>(1U << bit);
      }
    }
    out.push_back(packed);
  }
}

void check_message(const WireMessage& msg, const WireLayout& layout) {
  if (msg.params.size() != layout.param_count) {
    throw WireError("wire: message param count does not match layout");
  }
  if (msg.buffers.size() != layout.buffer_count) {
    throw WireError("wire: message buffer count does not match layout");
  }
  if (!msg.neuron_mask.empty() &&
      msg.neuron_mask.size() != static_cast<std::size_t>(layout.neuron_total)) {
    throw WireError("wire: message mask size does not match layout");
  }
}

// ---- Scale groups ----------------------------------------------------------

/// Numbers the scale groups of a shipped-index list into `groups` (one id
/// per value) and returns their count: one group per distinct owning
/// neuron, in ascending neuron id with the common group last — the order of
/// the sorted distinct keys, read off a neuron-indexed rank table in
/// O(values + neurons), identically on both sides.
std::size_t number_groups(const WireLayout& layout,
                          std::span<const std::uint32_t> ship,
                          std::vector<std::uint32_t>& groups) {
  // Slot n is neuron n; slot neuron_total (every neuron id is below it, and
  // kCommonParam above) is the common group.
  const auto common = static_cast<std::uint32_t>(layout.neuron_total);
  std::vector<std::uint32_t> rank(std::size_t{common} + 1, 0);
  groups.resize(ship.size());
  for (std::size_t i = 0; i < ship.size(); ++i) {
    const std::uint32_t slot = std::min(layout.neuron_of[ship[i]], common);
    groups[i] = slot;
    rank[slot] = 1;
  }
  std::uint32_t count = 0;
  for (std::uint32_t& r : rank) {
    const std::uint32_t used = r;
    r = count;
    count += used;
  }
  for (std::uint32_t& g : groups) g = rank[g];
  return count;
}

std::size_t frame_overhead(const WireLayout& layout, bool has_mask,
                           std::size_t scale_count) {
  return kHeaderBytes + mask_wire_bytes(has_mask ? layout.neuron_total : 0) +
         2 * scale_count + layout.buffer_count * sizeof(float) + kTrailerBytes;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t c = 0xFFFFFFFFU;
#if HELIOS_HAVE_PCLMUL
  // Whole 16-byte blocks fold with PCLMULQDQ; the tables take the tail.
  static const bool fold = util::cpu_has_pclmul();
  if (fold && bytes.size() >= detail::kCrcFoldMinBytes) {
    const std::size_t blocks = bytes.size() & ~std::size_t{15};
    c = detail::crc32_fold(c, bytes.first(blocks));
    bytes = bytes.subspan(blocks);
  }
#endif
  return crc32_update(c, bytes) ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_table(std::span<const std::uint8_t> bytes) {
  return crc32_update(0xFFFFFFFFU, bytes) ^ 0xFFFFFFFFU;
}

WireLayout make_wire_layout(nn::Model& model) {
  WireLayout layout;
  layout.param_count = model.param_count();
  layout.buffer_count = model.buffer_count();
  layout.neuron_total = model.neuron_total();
  layout.neuron_of.assign(layout.param_count, WireLayout::kCommonParam);
  const auto& neurons = model.neurons();
  for (std::size_t j = 0; j < neurons.size(); ++j) {
    for (const nn::FlatSlice& s : neurons[j].slices) {
      std::fill_n(layout.neuron_of.begin() +
                      static_cast<std::ptrdiff_t>(s.offset),
                  s.length, static_cast<std::uint32_t>(j));
    }
  }
  return layout;
}

std::size_t mask_wire_bytes(int neuron_total) {
  return neuron_total <= 0
             ? 0
             : (static_cast<std::size_t>(neuron_total) + 7) / 8;
}

std::size_t dense_payload_count(const WireLayout& layout,
                                std::span<const std::uint8_t> mask) {
  if (mask.empty()) return layout.param_count;
  std::size_t count = 0;
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    count += entry_shipped(layout, mask, f);
  }
  return count;
}

std::size_t dense_frame_bytes(const WireLayout& layout,
                              std::span<const std::uint8_t> mask) {
  return frame_overhead(layout, !mask.empty(), 0) +
         dense_payload_count(layout, mask) * sizeof(float);
}

std::vector<std::uint8_t> encode_frame_auto(const WireMessage& msg,
                                            std::span<const float> base,
                                            const WireLayout& layout,
                                            codec::CodecId codec,
                                            CodecResult* result) {
  check_message(msg, layout);
  const codec::CodecInfo& info = codec::codec_info(codec);
  const bool lossless = codec == codec::CodecId::kFp32;
  const bool has_base = base.size() == layout.param_count;
  const bool has_mask = !msg.neuron_mask.empty();
  const bool delta = has_base && !lossless;

  // The dense stream: every shipped flat index and its value, quantized
  // once.
  std::vector<std::uint32_t> ship;
  std::vector<float> values;
  ship.reserve(layout.param_count);
  values.reserve(layout.param_count);
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    if (!entry_shipped(layout, msg.neuron_mask, f)) continue;
    ship.push_back(static_cast<std::uint32_t>(f));
    values.push_back(delta ? msg.params[f] - base[f] : msg.params[f]);
  }
  std::vector<std::uint32_t> groups;
  const std::size_t group_count =
      info.scaled ? number_groups(layout, ship, groups) : 0;
  const codec::Quantized dense =
      codec::quantize(codec, std::move(values), groups, group_count);
  // What the decoder reconstructs per shipped value, before adding a base.
  const std::span<const float> received = dense.values;
  const std::size_t dense_total =
      frame_overhead(layout, has_mask, dense.plan.scale_bits.size()) +
      dense.packed_bytes;

  // Sparse candidate (needs the base): only values the decoder cannot take
  // from the base ship — zero dequantized deltas, or fp32 values equal to
  // the base, reconstruct identically when dropped. The scales stay the
  // dense stream's, which are what quantized the values, renumbered over
  // the groups that still ship (in ascending order, exactly as
  // number_groups numbers them); every shipped code is non-zero, so none
  // rides the zero-run coding.
  bool use_sparse = false;
  std::vector<std::uint32_t> sparse_ship;
  codec::Quantized sparse;
  if (has_base) {
    const auto kept = [&](std::size_t i) {
      return received[i] != (delta ? 0.0f : base[ship[i]]);
    };
    std::size_t kept_count = 0;
    for (std::size_t i = 0; i < received.size(); ++i) kept_count += kept(i);
    // Per dense scale group: whether a kept value uses it.
    std::vector<std::uint8_t> used(group_count, 0);
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (kept(i)) used[groups[i]] = 1;
    }
    const auto kept_scales =
        static_cast<std::size_t>(std::count(used.begin(), used.end(), 1));
    const std::size_t sparse_packed = kept_count * info.value_bits / 8;
    use_sparse = frame_overhead(layout, has_mask, kept_scales) +
                     kept_count * sizeof(std::uint32_t) + sparse_packed <
                 dense_total;
    if (use_sparse) {
      sparse.plan.id = codec;
      for (std::size_t g = 0; g < used.size(); ++g) {
        if (used[g] != 0) {
          sparse.plan.scale_bits.push_back(dense.plan.scale_bits[g]);
        }
      }
      sparse.packed_bytes = sparse_packed;
      for (std::size_t i = 0; i < received.size(); ++i) {
        if (!kept(i)) continue;
        sparse_ship.push_back(ship[i]);
        sparse.values.push_back(received[i]);
        if (info.scaled) sparse.codes.push_back(dense.codes[i]);
      }
    }
  }
  const codec::Quantized& s = use_sparse ? sparse : dense;

  std::vector<std::uint8_t> out;
  // pack() stages int8 codes at a byte each before zero-run coding them.
  out.reserve(frame_overhead(layout, has_mask, s.plan.scale_bits.size()) +
              sparse_ship.size() * sizeof(std::uint32_t) +
              std::max(s.packed_bytes, s.codes.size()));
  Writer w(out);
  std::uint16_t flags = has_mask ? kFlagHasMask : 0;
  if (delta) flags |= kFlagDelta;
  if (use_sparse) flags |= kFlagSparse;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u16(flags);
  w.u32(std::bit_cast<std::uint32_t>(msg.client_id));
  w.u32(has_mask ? static_cast<std::uint32_t>(layout.neuron_total) : 0);
  w.u64(layout.param_count);
  w.u64(layout.buffer_count);
  w.u64(s.values.size());
  w.u64(msg.sample_count);
  w.f64(msg.mean_loss);
  w.u32(static_cast<std::uint32_t>(codec));
  w.u32(static_cast<std::uint32_t>(s.packed_bytes));
  if (has_mask) append_packed_mask(out, msg.neuron_mask);
  for (std::uint32_t f : sparse_ship) w.u32(f);
  for (std::uint16_t bits : s.plan.scale_bits) w.u16(bits);
  codec::pack(s, out);
  for (float v : msg.buffers) w.f32(v);
  w.u32(crc32(out));

  if (result != nullptr) {
    result->sparse = use_sparse;
    result->dequantized.clear();
    if (!lossless) {
      // Unshipped entries decode to the base; without one the encoder
      // cannot know them, but shipped entries are still exact.
      if (delta) {
        result->dequantized.assign(base.begin(), base.end());
      } else {
        result->dequantized.assign(layout.param_count, 0.0f);
      }
      for (std::size_t i = 0; i < ship.size(); ++i) {
        const std::uint32_t f = ship[i];
        result->dequantized[f] = delta ? base[f] + received[i] : received[i];
      }
    }
  }
  return out;
}

DecodedMessage decode_frame(std::span<const std::uint8_t> frame,
                            const WireLayout& layout,
                            std::span<const float> base_params) {
  if (frame.size() < kHeaderBytes + kTrailerBytes) {
    throw WireError("wire: frame shorter than header + trailer");
  }
  // Integrity first: a flipped bit anywhere (header included) must be
  // rejected before any field is trusted.
  Reader crc_reader(frame.subspan(frame.size() - kTrailerBytes));
  const std::uint32_t stored_crc = crc_reader.u32();
  if (crc32(frame.first(frame.size() - kTrailerBytes)) != stored_crc) {
    throw WireError("wire: CRC mismatch");
  }

  Reader r(frame);
  if (r.u32() != kWireMagic) throw WireError("wire: bad magic");
  const std::uint16_t version = r.u16();
  if (version != kWireVersion) {
    throw WireError("wire: unsupported version " + std::to_string(version));
  }
  const std::uint16_t flags = r.u16();
  DecodedMessage msg;
  msg.client_id = std::bit_cast<std::int32_t>(r.u32());
  const std::uint32_t neuron_total = r.u32();
  const std::uint64_t param_count = r.u64();
  const std::uint64_t buffer_count = r.u64();
  const std::uint64_t payload_count = r.u64();
  msg.sample_count = r.u64();
  msg.mean_loss = r.f64();
  const std::uint32_t codec_raw = r.u32();
  const std::uint32_t packed_bytes = r.u32();
  const bool sparse = (flags & kFlagSparse) != 0;
  const bool has_mask = (flags & kFlagHasMask) != 0;
  const bool delta = (flags & kFlagDelta) != 0;

  if (!codec::codec_known(codec_raw)) {
    throw WireError("wire: unknown payload codec " + std::to_string(codec_raw));
  }
  const auto codec = static_cast<codec::CodecId>(codec_raw);
  // The encoder's canonical forms: fp32 ships absolute values, a lossy
  // sparse frame ships deltas.
  const bool lossless = codec == codec::CodecId::kFp32;
  if (lossless && delta) {
    throw WireError("wire: fp32 frame with delta flag");
  }
  if (!lossless && sparse && !delta) {
    throw WireError("wire: sparse quantized frame without delta flag");
  }
  if (param_count != layout.param_count ||
      buffer_count != layout.buffer_count) {
    throw WireError("wire: frame built for a different architecture");
  }
  if (has_mask &&
      neuron_total != static_cast<std::uint32_t>(layout.neuron_total)) {
    throw WireError("wire: frame mask sized for a different architecture");
  }
  if (!has_mask && neuron_total != 0) {
    throw WireError("wire: stray neuron_total without mask flag");
  }

  if (has_mask) {
    const std::span<const std::uint8_t> packed =
        r.raw(mask_wire_bytes(static_cast<int>(neuron_total)));
    msg.neuron_mask.resize(neuron_total);
    for (std::size_t i = 0; i < msg.neuron_mask.size(); ++i) {
      msg.neuron_mask[i] = (packed[i / 8] >> (i % 8)) & 1U;
    }
  }
  const std::size_t dense_count = dense_payload_count(layout, msg.neuron_mask);
  if (sparse ? payload_count > dense_count : payload_count != dense_count) {
    throw WireError("wire: payload count does not match the mask");
  }
  const bool needs_base =
      sparse || delta || dense_count < layout.param_count;
  if (needs_base && base_params.size() != layout.param_count) {
    throw WireError("wire: partial frame requires the base snapshot");
  }

  // Gather the shipped flat indices, number the scale groups exactly as
  // the encoder did, then unpack.
  std::vector<std::uint32_t> ship;
  ship.reserve(payload_count);
  if (sparse) {
    for (std::uint64_t i = 0; i < payload_count; ++i) {
      const std::uint32_t f = r.u32();
      if (f >= layout.param_count) {
        throw WireError("wire: sparse index out of range");
      }
      if (!ship.empty() && f <= ship.back()) {
        throw WireError("wire: sparse indices not strictly ascending");
      }
      if (!entry_shipped(layout, msg.neuron_mask, f)) {
        throw WireError("wire: sparse index outside the shipped mask");
      }
      ship.push_back(f);
    }
  } else {
    for (std::size_t f = 0; f < layout.param_count; ++f) {
      if (entry_shipped(layout, msg.neuron_mask, f)) {
        ship.push_back(static_cast<std::uint32_t>(f));
      }
    }
  }

  std::vector<std::uint32_t> groups;
  const std::size_t group_count = codec::codec_info(codec).scaled
                                      ? number_groups(layout, ship, groups)
                                      : 0;
  codec::QuantPlan plan;
  plan.id = codec;
  plan.scale_bits.reserve(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    plan.scale_bits.push_back(r.u16());
  }
  const std::span<const std::uint8_t> payload = r.raw(packed_bytes);
  std::vector<float> values;
  try {
    values = codec::decode_values(plan, payload, groups, ship.size());
  } catch (const codec::CodecError& e) {
    throw WireError(std::string("wire: ") + e.what());
  }

  if (needs_base) {
    msg.params.assign(base_params.begin(), base_params.end());
  } else {
    msg.params.resize(layout.param_count);
  }
  for (std::size_t i = 0; i < ship.size(); ++i) {
    const std::uint32_t f = ship[i];
    msg.params[f] = delta ? base_params[f] + values[i] : values[i];
  }

  msg.buffers.resize(layout.buffer_count);
  for (std::size_t i = 0; i < layout.buffer_count; ++i) {
    msg.buffers[i] = r.f32();
  }
  if (r.pos() != frame.size() - kTrailerBytes) {
    throw WireError("wire: frame length does not match payload counts");
  }
  return msg;
}

}  // namespace helios::net
