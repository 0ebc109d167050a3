#include "agg/accumulator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "net/wire.h"

namespace helios::agg {

namespace {

// Merge-frame layout (little-endian):
//   0   4  magic "HMF1"
//   4   4  reserved, 0
//   8   8  param_count  (validated against the geometry)
//  16   8  buffer_count
//  24   8  folded update count (at least 1)
//  32   -  acc values (param_count), den values (param_count),
//          bacc values (buffer_count), bden value — 8 B raw f64 bits each
//   -   4  CRC32 over every preceding byte
constexpr std::uint32_t kMergeMagic = 0x31464D48U;  // "HMF1"
constexpr std::size_t kMergeFoldedAt = 24;
constexpr std::size_t kMergeHeaderBytes = 32;
constexpr std::size_t kMergeTrailerBytes = 4;

// Frames are the accumulator's own f64 arrays copied word for word, so the
// host byte order must be the frame's.
static_assert(std::endian::native == std::endian::little,
              "merge frames copy little-endian words");

template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Every check a merge frame passes before anything reads its sums: length,
/// magic, CRC, reserved word, geometry, a folded count of at least one (an
/// empty accumulator is never sent). decode_frame and merge_frame share it.
void validate_frame(std::span<const std::uint8_t> frame,
                    const ModelGeometry& geometry) {
  if (frame.size() != StreamingAccumulator::frame_bytes(geometry)) {
    throw net::WireError("merge frame: bad length");
  }
  if (load<std::uint32_t>(frame.data()) != kMergeMagic) {
    throw net::WireError("merge frame: bad magic");
  }
  const std::size_t body = frame.size() - kMergeTrailerBytes;
  if (net::crc32(frame.first(body)) !=
      load<std::uint32_t>(frame.data() + body)) {
    throw net::WireError("merge frame: CRC mismatch");
  }
  if (load<std::uint32_t>(frame.data() + 4) != 0) {
    throw net::WireError("merge frame: non-zero reserved word");
  }
  if (load<std::uint64_t>(frame.data() + 8) != geometry.param_count ||
      load<std::uint64_t>(frame.data() + 16) != geometry.buffer_count) {
    throw net::WireError("merge frame: geometry mismatch");
  }
  if (load<std::uint64_t>(frame.data() + kMergeFoldedAt) == 0) {
    throw net::WireError("merge frame: zero folded count");
  }
}

/// dst[i] += the i-th f64 of `src`, which may be unaligned.
void add_words(std::span<double> dst, const std::uint8_t* src) {
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] += load<double>(src + 8 * i);
  }
}

}  // namespace

ModelGeometry make_geometry(nn::Model& model) {
  ModelGeometry g;
  g.param_count = model.param_count();
  g.buffer_count = model.buffer_count();
  g.neuron_total = model.neuron_total();
  g.neurons = model.neurons();
  g.neuron_owned.assign(g.param_count, 0);
  for (const nn::NeuronInfo& n : g.neurons) {
    for (const nn::FlatSlice& s : n.slices) {
      std::fill_n(
          g.neuron_owned.begin() + static_cast<std::ptrdiff_t>(s.offset),
          s.length, std::uint8_t{1});
    }
  }
  return g;
}

std::vector<double> neuron_change_means(
    std::span<const nn::NeuronInfo> neurons, std::span<const float> before,
    std::span<const float> after, std::span<const std::uint8_t> mask) {
  std::vector<double> means(neurons.size(), 0.0);
  for (std::size_t j = 0; j < neurons.size(); ++j) {
    if (!mask.empty() && !mask[j]) continue;
    double change = 0.0;
    std::size_t params = 0;
    for (const nn::FlatSlice& s : neurons[j].slices) {
      if (s.offset + s.length > before.size() ||
          s.offset + s.length > after.size()) {
        throw std::out_of_range("neuron_change_means: slice out of range");
      }
      for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
        change += std::fabs(static_cast<double>(after[f]) - before[f]);
      }
      params += s.length;
    }
    if (params > 0) means[j] = change / static_cast<double>(params);
  }
  return means;
}

StreamingAccumulator::StreamingAccumulator(const ModelGeometry* geometry)
    : geo_(geometry) {
  if (geo_ == nullptr) {
    throw std::invalid_argument("StreamingAccumulator: null geometry");
  }
  acc_.assign(geo_->param_count, 0.0);
  den_.assign(geo_->param_count, 0.0);
  bacc_.assign(geo_->buffer_count, 0.0);
  allowed_.assign(geo_->param_count, 0);
}

void StreamingAccumulator::reset() {
  std::fill(acc_.begin(), acc_.end(), 0.0);
  std::fill(den_.begin(), den_.end(), 0.0);
  std::fill(bacc_.begin(), bacc_.end(), 0.0);
  bden_ = 0.0;
  folded_ = 0;
}

void StreamingAccumulator::fold(const UpdateView& u, const FoldWeights& w,
                                bool per_neuron_merge) {
  const std::size_t p = geo_->param_count;
  if (u.params.size() != p) {
    throw std::invalid_argument("StreamingAccumulator::fold: size mismatch");
  }
  if (!u.trained_mask.empty() &&
      u.trained_mask.size() != geo_->neurons.size()) {
    throw std::invalid_argument("StreamingAccumulator::fold: bad mask size");
  }
  // Identical allowed-mask construction to Server::aggregate: common params
  // always accept; neuron-owned params only when the neuron trained.
  if (u.trained_mask.empty() || !per_neuron_merge) {
    std::fill(allowed_.begin(), allowed_.end(), std::uint8_t{1});
  } else {
    for (std::size_t f = 0; f < p; ++f) allowed_[f] = !geo_->neuron_owned[f];
    for (std::size_t j = 0; j < geo_->neurons.size(); ++j) {
      if (!u.trained_mask[j]) continue;
      for (const nn::FlatSlice& s : geo_->neurons[j].slices) {
        std::fill_n(
            allowed_.begin() + static_cast<std::ptrdiff_t>(s.offset),
            s.length, std::uint8_t{1});
      }
    }
  }
  for (std::size_t f = 0; f < p; ++f) {
    if (!allowed_[f]) continue;
    const double wf = geo_->neuron_owned[f] ? w.neuron : w.common;
    acc_[f] += wf * u.params[f];
    den_[f] += wf;
  }
  if (!bacc_.empty()) {
    if (u.buffers.size() != bacc_.size()) {
      throw std::invalid_argument(
          "StreamingAccumulator::fold: buffer size mismatch");
    }
    for (std::size_t f = 0; f < bacc_.size(); ++f) {
      bacc_[f] += w.common * u.buffers[f];
    }
    bden_ += w.common;
  }
  ++folded_;
}

void StreamingAccumulator::merge(const StreamingAccumulator& child) {
  if (child.acc_.size() != acc_.size() || child.bacc_.size() != bacc_.size()) {
    throw std::invalid_argument("StreamingAccumulator::merge: geometry mismatch");
  }
  for (std::size_t f = 0; f < acc_.size(); ++f) {
    acc_[f] += child.acc_[f];
    den_[f] += child.den_[f];
  }
  for (std::size_t f = 0; f < bacc_.size(); ++f) bacc_[f] += child.bacc_[f];
  bden_ += child.bden_;
  folded_ += child.folded_;
}

void StreamingAccumulator::finalize(std::span<float> global,
                                    std::span<float> buffers) const {
  if (global.size() != acc_.size() || buffers.size() != bacc_.size()) {
    throw std::invalid_argument(
        "StreamingAccumulator::finalize: size mismatch");
  }
  for (std::size_t f = 0; f < acc_.size(); ++f) {
    if (den_[f] > 0.0) global[f] = static_cast<float>(acc_[f] / den_[f]);
  }
  if (bden_ > 0.0) {
    for (std::size_t f = 0; f < bacc_.size(); ++f) {
      buffers[f] = static_cast<float>(bacc_[f] / bden_);
    }
  }
}

std::size_t StreamingAccumulator::frame_bytes(const ModelGeometry& geometry) {
  // acc + den + bacc + bden, 8 B each.
  return kMergeHeaderBytes +
         8 * (2 * geometry.param_count + geometry.buffer_count + 1) +
         kMergeTrailerBytes;
}

std::vector<std::uint8_t> StreamingAccumulator::encode_frame() const {
  // The header as laid out above: magic, reserved word, three counts.
  const struct {
    std::uint32_t magic;
    std::uint32_t reserved;
    std::uint64_t counts[3];
  } head{kMergeMagic, 0, {geo_->param_count, geo_->buffer_count, folded_}};
  static_assert(sizeof head == kMergeHeaderBytes);
  const auto* h = reinterpret_cast<const std::uint8_t*>(&head);
  std::vector<std::uint8_t> out;
  out.reserve(frame_bytes(*geo_));
  out.assign(h, h + sizeof head);
  const auto put = [&out](const void* src, std::size_t n) {
    if (n == 0) return;  // src is null for empty buffers
    const auto* bytes = static_cast<const std::uint8_t*>(src);
    out.insert(out.end(), bytes, bytes + n);
  };
  put(acc_.data(), acc_.size() * sizeof(double));
  put(den_.data(), den_.size() * sizeof(double));
  put(bacc_.data(), bacc_.size() * sizeof(double));
  put(&bden_, sizeof bden_);
  const std::uint32_t crc = net::crc32(out);
  put(&crc, sizeof crc);
  return out;
}

StreamingAccumulator StreamingAccumulator::decode_frame(
    std::span<const std::uint8_t> frame, const ModelGeometry* geometry) {
  if (geometry == nullptr) {
    throw std::invalid_argument("decode_frame: null geometry");
  }
  validate_frame(frame, *geometry);
  StreamingAccumulator a(geometry);
  const std::uint8_t* p = frame.data() + kMergeFoldedAt;
  const auto take = [&p](void* dst, std::size_t n) {
    if (n != 0) std::memcpy(dst, p, n);
    p += n;
  };
  take(&a.folded_, sizeof a.folded_);
  take(a.acc_.data(), a.acc_.size() * sizeof(double));
  take(a.den_.data(), a.den_.size() * sizeof(double));
  take(a.bacc_.data(), a.bacc_.size() * sizeof(double));
  take(&a.bden_, sizeof a.bden_);
  return a;
}

void StreamingAccumulator::merge_frame(std::span<const std::uint8_t> frame) {
  if (geo_ == nullptr) {
    throw std::logic_error("merge_frame: accumulator has no geometry");
  }
  // Nothing is added until the whole frame has passed, so a rejected frame
  // leaves the accumulator as it was.
  validate_frame(frame, *geo_);
  const auto folded = load<std::uint64_t>(frame.data() + kMergeFoldedAt);
  if (folded > std::numeric_limits<std::uint64_t>::max() - folded_) {
    throw net::WireError("merge frame: folded count overflows");
  }
  const std::uint8_t* p = frame.data() + kMergeHeaderBytes;
  add_words(acc_, p);
  p += 8 * acc_.size();
  add_words(den_, p);
  p += 8 * den_.size();
  add_words(bacc_, p);
  p += 8 * bacc_.size();
  bden_ += load<double>(p);
  folded_ += folded;
}

}  // namespace helios::agg
