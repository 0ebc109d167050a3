#include "agg/accumulator.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "net/wire.h"

namespace helios::agg {

namespace {

// Merge-frame layout (little-endian):
//   0   4  magic "HMF1"
//   4   4  reserved, 0
//   8   8  param_count  (validated against the geometry)
//  16   8  buffer_count
//  24   8  folded update count
//  32   -  acc values (param_count), den values (param_count),
//          bacc values (buffer_count), bden value — 8 B raw f64 bits each
//   -   4  CRC32 over every preceding byte
constexpr std::uint32_t kMergeMagic = 0x31464D48U;  // "HMF1"
constexpr std::size_t kMergeHeaderBytes = 32;
constexpr std::size_t kMergeTrailerBytes = 4;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
  return v;
}

double get_f64(std::span<const std::uint8_t> in, std::size_t at) {
  const std::uint64_t bits = get_u64(in, at);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
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
  std::vector<std::uint8_t> out;
  out.reserve(frame_bytes(*geo_));
  put_u32(out, kMergeMagic);
  put_u32(out, 0);  // reserved
  put_u64(out, static_cast<std::uint64_t>(geo_->param_count));
  put_u64(out, static_cast<std::uint64_t>(geo_->buffer_count));
  put_u64(out, folded_);
  for (double v : acc_) put_f64(out, v);
  for (double v : den_) put_f64(out, v);
  for (double v : bacc_) put_f64(out, v);
  put_f64(out, bden_);
  put_u32(out, net::crc32({out.data(), out.size()}));
  return out;
}

StreamingAccumulator StreamingAccumulator::decode_frame(
    std::span<const std::uint8_t> frame, const ModelGeometry* geometry) {
  if (geometry == nullptr) {
    throw std::invalid_argument("decode_frame: null geometry");
  }
  if (frame.size() != frame_bytes(*geometry)) {
    throw net::WireError("merge frame: bad length");
  }
  if (get_u32(frame, 0) != kMergeMagic) {
    throw net::WireError("merge frame: bad magic");
  }
  const std::size_t body = frame.size() - kMergeTrailerBytes;
  if (net::crc32(frame.subspan(0, body)) != get_u32(frame, body)) {
    throw net::WireError("merge frame: CRC mismatch");
  }
  if (get_u32(frame, 4) != 0) {
    throw net::WireError("merge frame: non-zero reserved word");
  }
  if (get_u64(frame, 8) != geometry->param_count ||
      get_u64(frame, 16) != geometry->buffer_count) {
    throw net::WireError("merge frame: geometry mismatch");
  }
  StreamingAccumulator a(geometry);
  a.folded_ = get_u64(frame, 24);
  std::size_t at = kMergeHeaderBytes;
  for (double& v : a.acc_) { v = get_f64(frame, at); at += 8; }
  for (double& v : a.den_) { v = get_f64(frame, at); at += 8; }
  for (double& v : a.bacc_) { v = get_f64(frame, at); at += 8; }
  a.bden_ = get_f64(frame, at);
  return a;
}

}  // namespace helios::agg
