#include "net/wire.h"

#include <algorithm>
#include <array>
#include <bit>

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

/// Sorted unique scale-group keys; a key's dense group id is its index
/// here. Keys are owning-neuron ids with WireLayout::kCommonParam (the max
/// u32) for common parameters, so ascending order puts the common group
/// last — deterministically on both sides.
std::vector<std::uint32_t> unique_keys(std::vector<std::uint32_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

/// Group tagging of a shipped-index list: one group per distinct owning
/// neuron for the scaled codec, none otherwise.
struct GroupTags {
  std::vector<std::uint32_t> keys;    // per dense group id
  std::vector<std::uint32_t> groups;  // per value
};

GroupTags derive_groups(const WireLayout& layout,
                        std::span<const std::uint32_t> ship,
                        const codec::CodecInfo& info) {
  GroupTags t;
  if (!info.scaled) return t;
  std::vector<std::uint32_t> raw;
  raw.reserve(ship.size());
  for (std::uint32_t f : ship) raw.push_back(layout.neuron_of[f]);
  t.keys = unique_keys(raw);
  t.groups.reserve(raw.size());
  for (std::uint32_t k : raw) {
    t.groups.push_back(static_cast<std::uint32_t>(
        std::lower_bound(t.keys.begin(), t.keys.end(), k) - t.keys.begin()));
  }
  return t;
}

/// The values one frame carries: the shipped flat indices in ascending
/// order, their values, and the values' scale groups.
struct ValueStream {
  std::vector<std::uint32_t> ship;
  std::vector<float> values;
  std::vector<std::uint32_t> groups;
  codec::QuantPlan plan;
};

std::size_t frame_overhead(const WireLayout& layout, bool has_mask,
                           std::size_t scale_count) {
  return kHeaderBytes + mask_wire_bytes(has_mask ? layout.neuron_total : 0) +
         2 * scale_count + layout.buffer_count * sizeof(float) + kTrailerBytes;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFU;
  std::size_t i = 0;
  // Four bytes per step: every frame is CRC-checked on both sides, and the
  // byte-at-a-time loop was most of an fp32 encode or decode.
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
  return c ^ 0xFFFFFFFFU;
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

  ValueStream dense;
  dense.ship.reserve(layout.param_count);
  dense.values.reserve(layout.param_count);
  for (std::size_t f = 0; f < layout.param_count; ++f) {
    if (!entry_shipped(layout, msg.neuron_mask, f)) continue;
    dense.ship.push_back(static_cast<std::uint32_t>(f));
    dense.values.push_back(delta ? msg.params[f] - base[f] : msg.params[f]);
  }
  GroupTags tags = derive_groups(layout, dense.ship, info);
  dense.groups = std::move(tags.groups);
  dense.plan = codec::plan_quantization(codec, dense.values, dense.groups,
                                        tags.keys.size());
  // What the decoder reconstructs per shipped value, before adding a base.
  const std::vector<float> dq =
      lossless ? std::vector<float>()
               : codec::dequantized_values(dense.plan, dense.values,
                                           dense.groups);
  const std::span<const float> received =
      lossless ? std::span<const float>(dense.values) : std::span(dq);
  std::size_t packed =
      codec::payload_bytes(dense.plan, dense.values, dense.groups);
  const std::size_t dense_total =
      frame_overhead(layout, has_mask, dense.plan.scale_bits.size()) + packed;

  // Sparse candidate (needs the base): only values the decoder cannot take
  // from the base ship — zero dequantized deltas, or fp32 values equal to
  // the base, reconstruct identically when dropped. The scales stay the
  // dense stream's, which are what quantized the values, renumbered over
  // the groups that still ship (in ascending key order, exactly as
  // derive_groups numbers them); every shipped value is non-zero, so none
  // rides the zero-run coding.
  bool use_sparse = false;
  ValueStream sparse;
  if (has_base) {
    const auto kept = [&](std::size_t i) {
      return received[i] != (delta ? 0.0f : base[dense.ship[i]]);
    };
    // Per dense scale group: whether a kept value uses it.
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
  out.reserve(dense_total);  // the sparse frame is smaller
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
  w.u32(static_cast<std::uint32_t>(packed));
  if (has_mask) append_packed_mask(out, msg.neuron_mask);
  if (use_sparse) {
    for (std::uint32_t f : s.ship) w.u32(f);
  }
  for (std::uint16_t bits : s.plan.scale_bits) w.u16(bits);
  codec::encode_values(s.plan, s.values, s.groups, out);
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
      for (std::size_t i = 0; i < dense.ship.size(); ++i) {
        const std::uint32_t f = dense.ship[i];
        result->dequantized[f] = delta ? base[f] + dq[i] : dq[i];
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

  // Gather the shipped flat indices, re-derive the scale groups exactly as
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

  const GroupTags tags = derive_groups(layout, ship, codec::codec_info(codec));
  codec::QuantPlan plan;
  plan.id = codec;
  plan.scale_bits.reserve(tags.keys.size());
  for (std::size_t g = 0; g < tags.keys.size(); ++g) {
    plan.scale_bits.push_back(r.u16());
  }
  const std::span<const std::uint8_t> payload = r.raw(packed_bytes);
  std::vector<float> values;
  try {
    values = codec::decode_values(plan, payload, tags.groups, ship.size());
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
