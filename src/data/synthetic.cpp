#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace helios::data {
namespace {

/// Bilinearly upsamples a coarse grid[gh][gw] to out_h x out_w.
void upsample_bilinear(const std::vector<float>& grid, int gh, int gw,
                       float* out, int out_h, int out_w) {
  for (int y = 0; y < out_h; ++y) {
    const float fy = (out_h == 1) ? 0.0F
                                  : static_cast<float>(y) * (gh - 1) /
                                        static_cast<float>(out_h - 1);
    const int y0 = static_cast<int>(fy);
    const int y1 = std::min(y0 + 1, gh - 1);
    const float wy = fy - static_cast<float>(y0);
    for (int x = 0; x < out_w; ++x) {
      const float fx = (out_w == 1) ? 0.0F
                                    : static_cast<float>(x) * (gw - 1) /
                                          static_cast<float>(out_w - 1);
      const int x0 = static_cast<int>(fx);
      const int x1 = std::min(x0 + 1, gw - 1);
      const float wx = fx - static_cast<float>(x0);
      const float v00 = grid[static_cast<std::size_t>(y0) * gw + x0];
      const float v01 = grid[static_cast<std::size_t>(y0) * gw + x1];
      const float v10 = grid[static_cast<std::size_t>(y1) * gw + x0];
      const float v11 = grid[static_cast<std::size_t>(y1) * gw + x1];
      out[static_cast<std::size_t>(y) * out_w + x] =
          (1 - wy) * ((1 - wx) * v00 + wx * v01) +
          wy * ((1 - wx) * v10 + wx * v11);
    }
  }
}

/// Smooth random field: coarse i.i.d. normals upsampled to full resolution.
void smooth_field(util::Rng& rng, int grid, float scale, float* out,
                  int out_h, int out_w) {
  std::vector<float> coarse(static_cast<std::size_t>(grid) * grid);
  for (float& v : coarse) v = static_cast<float>(rng.normal()) * scale;
  upsample_bilinear(coarse, grid, grid, out, out_h, out_w);
}

/// One task's sample generator: the class prototypes (a pure function of
/// spec.prototype_seed) and the per-sample draws every synthesis path
/// shares.
class SampleSynth {
 public:
  explicit SampleSynth(const SyntheticSpec& spec)
      : spec_(spec),
        plane_(static_cast<std::size_t>(spec.height) * spec.width),
        numel_(static_cast<std::size_t>(spec.channels) * plane_),
        deform_(plane_) {
    if (spec.samples <= 0 || spec.channels <= 0 || spec.height <= 0 ||
        spec.width <= 0 || spec.classes <= 0 || spec.prototype_grid < 2) {
      throw std::invalid_argument("make_synthetic: bad spec");
    }
    // One smooth prototype per (class, channel).
    prototypes_.resize(static_cast<std::size_t>(spec.classes) * numel_);
    util::Rng proto_rng(spec.prototype_seed);
    for (int c = 0; c < spec.classes; ++c) {
      for (int ch = 0; ch < spec.channels; ++ch) {
        smooth_field(proto_rng, spec.prototype_grid, 1.0F,
                     prototypes_.data() + static_cast<std::size_t>(c) * numel_ +
                         ch * plane_,
                     spec.height, spec.width);
      }
    }
  }

  /// Normals one sample draws after its label: the brightness jitter, then
  /// per channel the deformation grid and one noise value per pixel.
  std::uint64_t normals_per_sample() const {
    const auto grid = static_cast<std::uint64_t>(spec_.prototype_grid);
    return 1 + static_cast<std::uint64_t>(spec_.channels) *
                   (grid * grid + plane_);
  }

  /// Draws up to `pool` candidates in stream order, each one's label
  /// first, and synthesizes the first `rows` whose label `keeps` accepts,
  /// straight into the output; a rejected candidate's normals are skipped.
  /// Holds fewer than `rows` samples when the pool runs out of matches.
  template <typename Keep>
  Dataset fill(util::Rng& rng, int pool, int rows, const Keep& keeps) {
    Dataset out = empty(rows);
    int kept = 0;
    for (int i = 0; i < pool && kept < rows; ++i) {
      const int label = static_cast<int>(
          rng.uniform_int(static_cast<std::uint64_t>(spec_.classes)));
      if (!keeps(label)) {
        rng.skip_normals(normals_per_sample());
        continue;
      }
      out.labels[static_cast<std::size_t>(kept)] = label;
      sample(rng, label,
             out.images.data() + static_cast<std::size_t>(kept) * numel_);
      ++kept;
    }
    if (kept == rows) return out;
    Dataset fewer = empty(kept);
    std::copy_n(out.images.data(), fewer.images.numel(), fewer.images.data());
    std::copy_n(out.labels.begin(), kept, fewer.labels.begin());
    return fewer;
  }

 private:
  /// A zero-filled dataset with room for `n` samples.
  Dataset empty(int n) const {
    Dataset d;
    d.num_classes = spec_.classes;
    d.images = Tensor({n, spec_.channels, spec_.height, spec_.width});
    d.labels.resize(static_cast<std::size_t>(n));
    return d;
  }

  /// Prototype + smooth deformation + white noise + brightness jitter.
  void sample(util::Rng& rng, int label, float* dst) {
    const float* proto =
        prototypes_.data() + static_cast<std::size_t>(label) * numel_;
    const float brightness =
        static_cast<float>(rng.normal()) * 0.1F;  // global jitter
    for (int ch = 0; ch < spec_.channels; ++ch) {
      smooth_field(rng, spec_.prototype_grid, spec_.deform, deform_.data(),
                   spec_.height, spec_.width);
      const float* p = proto + static_cast<std::size_t>(ch) * plane_;
      float* d = dst + static_cast<std::size_t>(ch) * plane_;
      for (std::size_t px = 0; px < plane_; ++px) {
        d[px] = p[px] + deform_[px] +
                static_cast<float>(rng.normal()) * spec_.noise + brightness;
      }
    }
  }

  const SyntheticSpec& spec_;
  std::size_t plane_;
  std::size_t numel_;
  std::vector<float> prototypes_;
  std::vector<float> deform_;
};

}  // namespace

Dataset make_synthetic(const SyntheticSpec& spec, util::Rng& rng) {
  return SampleSynth(spec).fill(rng, spec.samples, spec.samples,
                                [](int) { return true; });
}

Dataset make_synthetic_filtered(const SyntheticSpec& spec, util::Rng rng,
                                std::span<const int> labels, int keep) {
  if (keep <= 0) {
    throw std::invalid_argument("make_synthetic_filtered: keep <= 0");
  }
  SampleSynth synth(spec);
  util::Rng stream = rng;  // rng stays at the start for the fallback
  Dataset out = synth.fill(stream, spec.samples, keep, [&](int label) {
    return std::find(labels.begin(), labels.end(), label) != labels.end();
  });
  if (out.size() > 0) return out;
  // No candidate matched: the pool head stands in.
  const int head = std::min(spec.samples, keep);
  return synth.fill(rng, head, head, [](int) { return true; });
}

SyntheticSpec mnist_like_spec(int samples) {
  SyntheticSpec s;
  s.samples = samples;
  s.channels = 1;
  s.height = 28;
  s.width = 28;
  s.classes = 10;
  return s;
}

SyntheticSpec cifar10_like_spec(int samples) {
  SyntheticSpec s;
  s.samples = samples;
  s.channels = 3;
  s.height = 32;
  s.width = 32;
  s.classes = 10;
  s.noise = 0.5F;
  return s;
}

SyntheticSpec cifar100_like_spec(int samples) {
  SyntheticSpec s;
  s.samples = samples;
  s.channels = 3;
  s.height = 16;
  s.width = 16;
  s.classes = 100;
  s.noise = 0.4F;
  return s;
}

}  // namespace helios::data
