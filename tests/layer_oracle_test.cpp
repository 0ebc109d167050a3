// Bitwise oracles for the data-movement work around the GEMMs: im2col,
// col2im, Conv2d's per-sample plumbing, ReLU and MaxPool; and for the
// register-tiled AVX2 NT GEMMs against the per-output dot product they
// replaced.
//
// Each fast path is compared bit for bit against the loop it replaced,
// kept here verbatim as the reference: the per-element bounds-checked
// im2col/col2im, the branchy ReLU and the runtime-window MaxPool. The
// geometries are randomized over kernels 1/3/5/7, strides 1-3, padding
// from 0 up to the kernel size, non-square inputs with odd and even sides,
// and batch 1; inputs carry NaN payloads, ±inf, -0.0, denormals and tied
// pool windows. One ctest per op (label `checkasm`), like FATE's
// fate-dnn-layer-* targets.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#if defined(HELIOS_HAVE_AVX2)
#include <immintrin.h>
#endif

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pool.h"
#include "tensor/backend/dispatch.h"
#include "tensor/backend/kernels.h"
#include "tensor/ops.h"
#include "test_support.h"
#include "util/rng.h"

namespace helios {
namespace {

using tensor::Conv2dGeometry;
using tensor::Shape;
using tensor::Tensor;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Values whose bits a copy, a select or a compare must not disturb.
const float kSpecials[] = {
    kNaN,
    std::bit_cast<float>(0xFFC00000U),  // negative quiet NaN
    std::bit_cast<float>(0x7FC01234U),  // quiet NaN with a payload
    std::bit_cast<float>(0x7F800001U),  // signalling NaN
    kInf,
    -kInf,
    0.0F,
    -0.0F,
    std::bit_cast<float>(0x00000001U),  // smallest denormal
    std::bit_cast<float>(0x80000001U),  // its negative
    std::numeric_limits<float>::max(),
    std::numeric_limits<float>::lowest(),
};

int uniform(util::Rng& rng, int lo, int hi) {  // [lo, hi]
  return lo + static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(
                  hi - lo + 1)));
}

/// Normal entries with roughly one in eight replaced by a special value.
Tensor with_specials(Shape shape, util::Rng& rng) {
  Tensor t = Tensor::randn(std::move(shape), rng);
  for (float& v : t.flat()) {
    if (rng.uniform_int(8) == 0) {
      v = kSpecials[rng.uniform_int(std::size(kSpecials))];
    }
  }
  return t;
}

std::string describe(const Conv2dGeometry& g) {
  std::ostringstream os;
  os << "c=" << g.in_channels << " h=" << g.in_h << " w=" << g.in_w
     << " k=" << g.kernel << " s=" << g.stride << " p=" << g.pad;
  return os.str();
}

// ---------------------------------------------------------------------------
// Reference implementations: the loops the fast paths replaced.
// ---------------------------------------------------------------------------

void reference_im2col(const float* xp, const Conv2dGeometry& g, float* cp) {
  const int oh = g.out_h(), ow = g.out_w();
  const int hw = g.in_h * g.in_w;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        const int row = (c * g.kernel + ky) * g.kernel + kx;
        float* crow = cp + static_cast<std::size_t>(row) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * g.stride + ky - g.pad;
          const bool y_ok = iy >= 0 && iy < g.in_h;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * g.stride + kx - g.pad;
            const std::size_t out_idx =
                static_cast<std::size_t>(oy) * ow + static_cast<std::size_t>(ox);
            crow[out_idx] = (y_ok && ix >= 0 && ix < g.in_w)
                                ? xp[c * hw + iy * g.in_w + ix]
                                : 0.0F;
          }
        }
      }
    }
  }
}

void reference_col2im(const float* cp, const Conv2dGeometry& g, float* xp) {
  const int oh = g.out_h(), ow = g.out_w();
  const int hw = g.in_h * g.in_w;
  for (int c = 0; c < g.in_channels; ++c) {
    for (int ky = 0; ky < g.kernel; ++ky) {
      for (int kx = 0; kx < g.kernel; ++kx) {
        const int row = (c * g.kernel + ky) * g.kernel + kx;
        const float* crow = cp + static_cast<std::size_t>(row) * oh * ow;
        for (int oy = 0; oy < oh; ++oy) {
          const int iy = oy * g.stride + ky - g.pad;
          if (iy < 0 || iy >= g.in_h) continue;
          for (int ox = 0; ox < ow; ++ox) {
            const int ix = ox * g.stride + kx - g.pad;
            if (ix < 0 || ix >= g.in_w) continue;
            xp[c * hw + iy * g.in_w + ix] +=
                crow[static_cast<std::size_t>(oy) * ow + ox];
          }
        }
      }
    }
  }
}

struct ReferenceRelu {
  std::vector<std::uint8_t> positive;

  Tensor forward(const Tensor& x, bool training) {
    Tensor y = x;
    float* yp = y.data();
    if (training) {
      positive.resize(y.numel());
      for (std::size_t i = 0; i < y.numel(); ++i) {
        positive[i] = yp[i] > 0.0F;
        if (!positive[i]) yp[i] = 0.0F;
      }
    } else {
      for (std::size_t i = 0; i < y.numel(); ++i) {
        if (yp[i] < 0.0F) yp[i] = 0.0F;
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) const {
    Tensor dx = grad_out;
    float* dp = dx.data();
    for (std::size_t i = 0; i < dx.numel(); ++i) {
      if (!positive[i]) dp[i] = 0.0F;
    }
    return dx;
  }
};

struct PoolGeometry {
  int channels, in_h, in_w, kernel, stride;
  int out_h() const { return (in_h - kernel) / stride + 1; }
  int out_w() const { return (in_w - kernel) / stride + 1; }
};

/// Runtime-window max pool: output and the flat in-plane argmax.
void reference_max_pool(const Tensor& x, const PoolGeometry& g, Tensor& y,
                        std::vector<int>& argmax) {
  const int n = x.dim(0), oh = g.out_h(), ow = g.out_w();
  y = Tensor({n, g.channels, oh, ow});
  argmax.assign(static_cast<std::size_t>(n) * g.channels * oh * ow, 0);
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t in_plane = static_cast<std::size_t>(g.in_h) * g.in_w;
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < g.channels; ++c) {
      const float* plane =
          xp + (static_cast<std::size_t>(i) * g.channels + c) * in_plane;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox, ++out_idx) {
          float best = -std::numeric_limits<float>::infinity();
          int best_idx = 0;
          for (int ky = 0; ky < g.kernel; ++ky) {
            const int iy = oy * g.stride + ky;
            for (int kx = 0; kx < g.kernel; ++kx) {
              const int ix = ox * g.stride + kx;
              const int idx = iy * g.in_w + ix;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          yp[out_idx] = best;
          argmax[out_idx] = best_idx;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Geometries
// ---------------------------------------------------------------------------

/// The zoo's conv geometries, then kernels 1/3/5/7 x strides 1-3 x every
/// pad in [0, k], each with random channels and random (often non-square,
/// odd or even) sides.
std::vector<Conv2dGeometry> conv_geometries() {
  std::vector<Conv2dGeometry> out = {
      {3, 32, 32, 3, 1, 1},   // AlexNet-lite conv1
      {1, 28, 28, 5, 1, 2},   // LeNet conv1
      {6, 14, 14, 5, 1, 0},   // LeNet conv2
      {8, 16, 16, 3, 2, 1},   // ResNet18-lite stride-2 3x3
      {8, 16, 16, 1, 2, 0},   // ResNet18-lite stride-2 projection
      {16, 16, 16, 1, 1, 0},  // MobileNet-lite pointwise
  };
  util::Rng rng(0x1A7);
  for (int k : {1, 3, 5, 7}) {
    for (int s = 1; s <= 3; ++s) {
      for (int p = 0; p <= k; ++p) {
        const int min_side = std::max(1, k - 2 * p);
        Conv2dGeometry g;
        g.in_channels = uniform(rng, 1, 3);
        g.in_h = uniform(rng, min_side, k + 11);
        g.in_w = uniform(rng, min_side, k + 11);
        g.kernel = k;
        g.stride = s;
        g.pad = p;
        out.push_back(g);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// im2col / col2im
// ---------------------------------------------------------------------------

TEST(LayerOracle, Im2colMatchesBoundsCheckedLoop) {
  util::Rng rng(31);
  for (const Conv2dGeometry& g : conv_geometries()) {
    const Tensor x = with_specials({g.in_channels, g.in_h, g.in_w}, rng);
    const Shape cols_shape{g.patch_size(), g.out_h() * g.out_w()};
    // Pre-filled with garbage: every entry, padding included, is written.
    Tensor got = Tensor::full(cols_shape, 7.0F);
    Tensor want(cols_shape);
    tensor::im2col(x.data(), g, got.data());
    reference_im2col(x.data(), g, want.data());
    EXPECT_TRUE(testing::bitwise_equal(got.flat(), want.flat()))
        << describe(g);
  }
}

TEST(LayerOracle, Col2imMatchesBoundsCheckedLoop) {
  // Finite values and signed zeros only: IEEE addition of two NaNs may
  // return either payload, which says nothing about accumulation order.
  util::Rng rng(32);
  for (const Conv2dGeometry& g : conv_geometries()) {
    Tensor cols = Tensor::randn({g.patch_size(), g.out_h() * g.out_w()}, rng);
    for (std::size_t i = 0; i < cols.numel(); i += 5) cols.data()[i] = -0.0F;
    // Accumulates onto a non-zero dx, so the add order shows in the bits.
    Tensor got = Tensor::randn({g.in_channels, g.in_h, g.in_w}, rng);
    for (std::size_t i = 0; i < got.numel(); i += 3) got.data()[i] = -0.0F;
    Tensor want = got;
    tensor::col2im_accumulate(cols.data(), g, got.data());
    reference_col2im(cols.data(), g, want.data());
    EXPECT_TRUE(testing::bitwise_equal(got.flat(), want.flat()))
        << describe(g);
  }
}

// ---------------------------------------------------------------------------
// Conv2d: the layer's per-sample plumbing against reference im2col/col2im
// around the same dispatched GEMMs.
// ---------------------------------------------------------------------------

struct ConvResult {
  Tensor y, dx, dw, db;
};

/// Conv2d forward/backward rebuilt from the reference loops, with the
/// layer's batch split for dW: a fixed min(n, 8) chunk partition reduced in
/// chunk order once the work crosses kIntraOpMinWork.
ConvResult reference_conv(const Tensor& w, const Tensor& b,
                          const std::vector<std::uint8_t>& mask,
                          const Conv2dGeometry& g, const Tensor& x,
                          const Tensor& gy_all) {
  const int n = x.dim(0), oc = w.dim(0), plane = g.out_h() * g.out_w();
  const std::size_t in_sample =
      static_cast<std::size_t>(g.in_channels) * g.in_h * g.in_w;
  const std::size_t out_sample = static_cast<std::size_t>(oc) * plane;
  ConvResult r;
  r.y = Tensor({n, oc, g.out_h(), g.out_w()});
  r.dx = Tensor(x.shape());
  r.dw = Tensor(w.shape());
  r.db = Tensor(b.shape());
  Tensor sample({g.in_channels, g.in_h, g.in_w});
  Tensor cols({g.patch_size(), plane});
  Tensor ys({oc, plane});
  auto active = [&](int j) {
    return mask.empty() || mask[static_cast<std::size_t>(j)] != 0;
  };
  for (int i = 0; i < n; ++i) {
    std::copy_n(x.data() + i * in_sample, in_sample, sample.data());
    reference_im2col(sample.data(), g, cols.data());
    tensor::matmul_masked_rows_into(w, cols, mask, ys);
    for (int j = 0; j < oc; ++j) {
      for (int p = 0; p < plane; ++p) {
        r.y.data()[i * out_sample + j * plane + p] =
            active(j) ? ys.data()[j * plane + p] + b.data()[j] : 0.0F;
      }
    }
  }
  const std::int64_t per_sample =
      2 * static_cast<std::int64_t>(oc) * g.patch_size() * plane;
  const int chunks =
      n > 1 && per_sample * n >= tensor::kIntraOpMinWork ? std::min(n, 8) : 1;
  Tensor gy({oc, plane});
  Tensor dcols({g.patch_size(), plane});
  Tensor dsample({g.in_channels, g.in_h, g.in_w});
  for (int c = 0; c < chunks; ++c) {
    Tensor dw(w.shape());
    Tensor db(b.shape());
    for (int i = n * c / chunks; i < n * (c + 1) / chunks; ++i) {
      std::copy_n(x.data() + i * in_sample, in_sample, sample.data());
      reference_im2col(sample.data(), g, cols.data());
      std::copy_n(gy_all.data() + i * out_sample, out_sample, gy.data());
      tensor::matmul_nt_masked_rows_accumulate(gy, cols, mask, dw);
      for (int j = 0; j < oc; ++j) {
        if (!active(j)) continue;
        float acc = 0.0F;
        for (int p = 0; p < plane; ++p) acc += gy.data()[j * plane + p];
        db.data()[j] += acc;
      }
      dcols.fill(0.0F);
      tensor::matmul_tn_masked_accumulate(w, gy, mask, dcols);
      dsample.fill(0.0F);
      reference_col2im(dcols.data(), g, dsample.data());
      std::copy_n(dsample.data(), in_sample, r.dx.data() + i * in_sample);
    }
    if (chunks == 1) {
      r.dw = dw;
      r.db = db;
    } else {
      tensor::add_inplace(r.dw, dw);
      tensor::add_inplace(r.db, db);
    }
  }
  return r;
}

TEST(LayerOracle, Conv2dMatchesReferenceLoops) {
  for (const auto* table : tensor::backend::available_tables()) {
    tensor::backend::set_kernel_backend(table->id);
    util::Rng rng(33);
    int case_index = 0;
    for (const Conv2dGeometry& g : conv_geometries()) {
      const int n = 1 + case_index % 4;  // batch 1 every fourth case
      const int oc = uniform(rng, 1, 9);
      nn::Conv2d layer(g.in_channels, g.in_h, g.in_w, oc, g.kernel, g.stride,
                       g.pad, &rng);
      std::vector<std::uint8_t> mask;
      if (case_index++ % 3 == 1) {
        mask.resize(static_cast<std::size_t>(oc));
        for (auto& m : mask) m = rng.uniform_int(3) != 0;
        layer.set_mask(mask);
      }
      const Tensor x = with_specials({n, g.in_channels, g.in_h, g.in_w}, rng);
      const Tensor y = layer.forward(x, /*training=*/true);
      const Tensor gy = Tensor::randn(y.shape(), rng);
      layer.zero_grad();
      const Tensor dx = layer.backward(gy);
      const ConvResult want = reference_conv(*layer.params()[0],
                                             *layer.params()[1], mask, g, x, gy);
      const std::string ctx =
          std::string(table->name) + " " + describe(g) + " n=" +
          std::to_string(n) + " oc=" + std::to_string(oc);
      EXPECT_TRUE(testing::bitwise_equal(y.flat(), want.y.flat())) << ctx;
      EXPECT_TRUE(testing::bitwise_equal(dx.flat(), want.dx.flat())) << ctx;
      EXPECT_TRUE(testing::bitwise_equal(layer.grads()[0]->flat(),
                                         want.dw.flat()))
          << ctx;
      EXPECT_TRUE(testing::bitwise_equal(layer.grads()[1]->flat(),
                                         want.db.flat()))
          << ctx;
    }
  }
  tensor::backend::clear_kernel_backend_override();
}

TEST(LayerOracle, GradientOnlyBackwardKeepsParameterGradients) {
  // Model::backward ends at the first layer with parameters through
  // backward_params, which must accumulate exactly what backward does.
  util::Rng rng(34);
  auto check = [&](nn::Layer& layer, const Tensor& x, const std::string& what) {
    const Tensor y = layer.forward(x, /*training=*/true);
    const Tensor gy = Tensor::randn(y.shape(), rng);
    layer.zero_grad();
    layer.backward(gy);
    std::vector<Tensor> full;
    for (const Tensor* g : layer.grads()) full.push_back(*g);
    layer.zero_grad();
    layer.backward_params(gy);
    for (std::size_t t = 0; t < full.size(); ++t) {
      EXPECT_TRUE(testing::bitwise_equal(layer.grads()[t]->flat(),
                                         full[t].flat()))
          << what << " grad " << t;
    }
  };
  for (const Conv2dGeometry& g : conv_geometries()) {
    for (int n : {1, 4}) {
      nn::Conv2d conv(g.in_channels, g.in_h, g.in_w, 5, g.kernel, g.stride,
                      g.pad, &rng);
      check(conv, Tensor::randn({n, g.in_channels, g.in_h, g.in_w}, rng),
            "conv " + describe(g) + " n=" + std::to_string(n));
    }
  }
  nn::Dense dense(37, 11, &rng);
  dense.set_mask(std::vector<std::uint8_t>{1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1});
  check(dense, Tensor::randn({5, 37}, rng), "dense");
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

const std::size_t kReluSizes[] = {0,  1,  3,  7,  8,   15,   16,  17,
                                  31, 33, 64, 255, 1000, 4099};

TEST(LayerOracle, ReluForwardMatchesBranchyLoop) {
  util::Rng rng(35);
  for (std::size_t size : kReluSizes) {
    const Tensor x = with_specials({static_cast<int>(size)}, rng);
    for (bool training : {false, true}) {
      nn::ReLU relu;
      ReferenceRelu ref;
      EXPECT_TRUE(testing::bitwise_equal(relu.forward(x, training).flat(),
                                         ref.forward(x, training).flat()))
          << "size " << size << " training " << training;
    }
  }
}

TEST(LayerOracle, ReluBackwardMatchesBranchyLoop) {
  util::Rng rng(36);
  for (std::size_t size : kReluSizes) {
    const Shape shape{static_cast<int>(size)};
    const Tensor x = with_specials(shape, rng);
    const Tensor g = with_specials(shape, rng);
    nn::ReLU relu;
    ReferenceRelu ref;
    relu.forward(x, /*training=*/true);
    ref.forward(x, /*training=*/true);
    EXPECT_TRUE(testing::bitwise_equal(relu.backward(g).flat(),
                                       ref.backward(g).flat()))
        << "size " << size;
  }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// 2x2/stride-2 (the fixed-window path) on odd and even sides, then random
/// windows 1-4 x strides 1-3 (the runtime-window path).
std::vector<PoolGeometry> pool_geometries() {
  std::vector<PoolGeometry> out = {
      {6, 28, 28, 2, 2}, {16, 10, 10, 2, 2}, {8, 32, 32, 2, 2},
      {3, 7, 9, 2, 2},   {2, 5, 2, 2, 2},    {1, 2, 2, 2, 2},
      {2, 3, 3, 2, 2},
  };
  util::Rng rng(0x9001);
  for (int k = 1; k <= 4; ++k) {
    for (int s = 1; s <= 3; ++s) {
      for (int rep = 0; rep < 2; ++rep) {
        out.push_back({uniform(rng, 1, 3), uniform(rng, k, k + 9),
                       uniform(rng, k, k + 9), k, s});
      }
    }
  }
  return out;
}

/// Entries from a small set, so windows tie; one plane is all NaN.
Tensor tied_pool_input(const PoolGeometry& g, int n, util::Rng& rng) {
  const float values[] = {-1.0F, -0.0F, 0.0F, 0.5F, 0.5F, 2.0F,
                          kNaN,  -kInf, kInf, 2.0F, -1.0F};
  Tensor x({n, g.channels, g.in_h, g.in_w});
  for (float& v : x.flat()) v = values[rng.uniform_int(std::size(values))];
  const std::size_t plane = static_cast<std::size_t>(g.in_h) * g.in_w;
  std::fill_n(x.data() + (x.numel() - plane), plane, kNaN);
  return x;
}

std::string describe(const PoolGeometry& g, int n) {
  std::ostringstream os;
  os << "n=" << n << " c=" << g.channels << " h=" << g.in_h
     << " w=" << g.in_w << " k=" << g.kernel << " s=" << g.stride;
  return os.str();
}

TEST(LayerOracle, MaxPoolForwardMatchesRuntimeWindowLoop) {
  util::Rng rng(37);
  for (const PoolGeometry& g : pool_geometries()) {
    for (int n : {1, 3}) {
      const Tensor x = tied_pool_input(g, n, rng);
      Tensor want;
      std::vector<int> argmax;
      reference_max_pool(x, g, want, argmax);
      for (bool training : {false, true}) {
        nn::MaxPool2d pool(g.channels, g.in_h, g.in_w, g.kernel, g.stride);
        EXPECT_TRUE(testing::bitwise_equal(pool.forward(x, training).flat(),
                                           want.flat()))
            << describe(g, n) << " training " << training;
      }
    }
  }
}

TEST(LayerOracle, MaxPoolBackwardRoutesLikeRuntimeWindowLoop) {
  // Distinct integer gradients, so dx shows which tap every window chose.
  util::Rng rng(38);
  for (const PoolGeometry& g : pool_geometries()) {
    for (int n : {1, 3}) {
      const Tensor x = tied_pool_input(g, n, rng);
      Tensor y;
      std::vector<int> argmax;
      reference_max_pool(x, g, y, argmax);
      Tensor tagged(y.shape());
      for (std::size_t j = 0; j < tagged.numel(); ++j) {
        tagged.data()[j] = static_cast<float>(j + 1);
      }
      Tensor want(x.shape());
      const std::size_t in_plane = static_cast<std::size_t>(g.in_h) * g.in_w;
      const std::size_t out_plane =
          static_cast<std::size_t>(g.out_h()) * g.out_w();
      for (std::size_t j = 0; j < tagged.numel(); ++j) {
        want.data()[(j / out_plane) * in_plane +
                    static_cast<std::size_t>(argmax[j])] += tagged.data()[j];
      }
      nn::MaxPool2d pool(g.channels, g.in_h, g.in_w, g.kernel, g.stride);
      pool.forward(x, /*training=*/true);
      EXPECT_TRUE(testing::bitwise_equal(pool.backward(tagged).flat(),
                                         want.flat()))
          << describe(g, n);
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 NT GEMMs: C[i,j] = or += dot(A row i, B row j)
// ---------------------------------------------------------------------------

#if defined(HELIOS_HAVE_AVX2)

using tensor::backend::MatmulArgs;

#define HELIOS_AVX2_FN __attribute__((target("avx2,fma")))

HELIOS_AVX2_FN __m256i reference_tail_mask(int r) {
  alignas(32) static const std::int32_t lut[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(lut + (8 - r)));
}

// The per-output dot product both NT kernels used before tiling: four
// ascending accumulators and their own horizontal sum.
HELIOS_AVX2_FN float reference_dot_avx2(const float* x, const float* y,
                                        int k) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps();
  __m256 acc3 = _mm256_setzero_ps();
  int kk = 0;
  for (; kk + 32 <= k; kk += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk),
                           _mm256_loadu_ps(y + kk), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk + 8),
                           _mm256_loadu_ps(y + kk + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk + 16),
                           _mm256_loadu_ps(y + kk + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk + 24),
                           _mm256_loadu_ps(y + kk + 24), acc3);
  }
  for (; kk + 8 <= k; kk += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + kk),
                           _mm256_loadu_ps(y + kk), acc0);
  }
  if (kk < k) {
    const __m256i tm = reference_tail_mask(k - kk);
    acc1 = _mm256_fmadd_ps(_mm256_maskload_ps(x + kk, tm),
                           _mm256_maskload_ps(y + kk, tm), acc1);
  }
  const __m256 s01 = _mm256_add_ps(acc0, acc1);
  const __m256 s23 = _mm256_add_ps(acc2, acc3);
  const __m256 s = _mm256_add_ps(s01, s23);
  const __m128 lo128 = _mm256_castps256_ps128(s);
  const __m128 hi128 = _mm256_extractf128_ps(s, 1);
  __m128 r = _mm_add_ps(lo128, hi128);
  r = _mm_add_ps(r, _mm_movehl_ps(r, r));
  r = _mm_add_ss(r, _mm_shuffle_ps(r, r, 0x55));
  return _mm_cvtss_f32(r);
}

HELIOS_AVX2_FN void reference_nt_cols(const MatmulArgs& t) {
  const bool use_list = t.n_active >= 0;
  const std::int64_t cnt = use_list ? t.n_active : t.n;
  for (std::int64_t i = 0; i < t.m; ++i) {
    const float* arow = t.a + static_cast<std::size_t>(i) * t.k;
    float* crow = t.c + static_cast<std::size_t>(i) * t.n;
    for (std::int64_t idx = 0; idx < cnt; ++idx) {
      const std::int64_t j = use_list ? t.active[idx] : idx;
      crow[j] =
          reference_dot_avx2(arow, t.b + static_cast<std::size_t>(j) * t.k,
                             t.k);
    }
  }
}

HELIOS_AVX2_FN void reference_nt_rows_acc(const MatmulArgs& t) {
  for (std::int64_t i = 0; i < t.m; ++i) {
    if (t.mask != nullptr && t.mask[i] == 0) continue;
    const float* arow = t.a + static_cast<std::size_t>(i) * t.k;
    float* crow = t.c + static_cast<std::size_t>(i) * t.n;
    for (int j = 0; j < t.n; ++j) {
      crow[j] +=
          reference_dot_avx2(arow, t.b + static_cast<std::size_t>(j) * t.k,
                             t.k);
    }
  }
}

#undef HELIOS_AVX2_FN

/// Finite operands with signed zeros and tiny values: a product of two
/// tiny values underflows to a signed zero, so a row whose products all
/// underflow shows how every add treats -0.0. (NaN payloads are left out:
/// IEEE addition of two NaNs may return either.)
std::vector<float> nt_operand(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) {
    switch (rng.uniform_int(10)) {
      case 0: x = -0.0F; break;
      case 1: x = 0.0F; break;
      case 2: x = rng.uniform_int(2) == 0 ? 1e-30F : -1e-30F; break;
      default: x = static_cast<float>(rng.normal()); break;
    }
  }
  return v;
}

#endif  // HELIOS_HAVE_AVX2

TEST(LayerOracle, AvxNtKernelsMatchPerOutputDotProducts) {
#if !defined(HELIOS_HAVE_AVX2)
  GTEST_SKIP() << "built without the AVX2 kernels";
#else
  if (!tensor::backend::avx2_available()) {
    GTEST_SKIP() << "AVX2+FMA not available on this CPU";
  }
  const tensor::backend::KernelTable& avx2 = tensor::backend::avx2_kernels();
  struct Shape3 {
    int m, k, n;
  };
  std::vector<Shape3> shapes;
  for (int k = 0; k <= 72; ++k) {
    for (int n : {1, 3, 8, 9, 17, 25}) shapes.push_back({3, k, n});
  }
  // The benchmark workloads' Conv2d dW and Dense forward shapes.
  for (Shape3 s : {Shape3{6, 256, 25}, {16, 16, 150}, {8, 1024, 27},
                   {16, 256, 72}, {24, 64, 216}, {8, 64, 120}, {8, 120, 84},
                   {16, 64, 10}}) {
    shapes.push_back(s);
  }
  util::Rng rng(41);
  for (const Shape3& s : shapes) {
    const std::size_t ks = static_cast<std::size_t>(s.k);
    std::vector<float> a = nt_operand(static_cast<std::size_t>(s.m) * ks, rng);
    std::vector<float> b = nt_operand(static_cast<std::size_t>(s.n) * ks, rng);
    // Every product of output (0, 0) underflows to -0.0, and C(0, 0) is
    // -0.0, so the sign of a zero dot product shows in the bits.
    std::fill_n(a.begin(), ks, -1e-30F);
    std::fill_n(b.begin(), ks, 1e-30F);
    std::vector<float> c0 =
        nt_operand(static_cast<std::size_t>(s.m) * s.n, rng);
    c0[0] = -0.0F;
    for (bool masked : {false, true}) {
      std::vector<std::uint8_t> mask;
      std::vector<std::int32_t> active;
      if (masked) {
        mask.resize(static_cast<std::size_t>(std::max(s.m, s.n)));
        for (auto& v : mask) v = rng.uniform_int(3) != 0;
        for (int j = 0; j < s.n; ++j) {
          if (mask[static_cast<std::size_t>(j)]) active.push_back(j);
        }
      }
      MatmulArgs args;
      args.a = a.data();
      args.b = b.data();
      args.m = s.m;
      args.k = s.k;
      args.n = s.n;
      std::ostringstream what;
      what << "m=" << s.m << " k=" << s.k << " n=" << s.n
           << (masked ? " masked" : "");

      // Dense forward: column mask as the packed active list.
      if (masked) {
        args.active = active.data();
        args.n_active = static_cast<std::int32_t>(active.size());
      }
      std::vector<float> got(c0.size(), 0.0F);
      std::vector<float> want = got;
      args.c = got.data();
      avx2.matmul_nt_cols(args, 0, s.m);
      args.c = want.data();
      reference_nt_cols(args);
      EXPECT_TRUE(testing::bitwise_equal(got, want))
          << "nt_cols " << what.str();

      // Conv2d dW: row mask, accumulating onto C.
      args.active = nullptr;
      args.n_active = -1;
      args.mask = masked ? mask.data() : nullptr;
      got = c0;
      want = c0;
      args.c = got.data();
      avx2.matmul_nt_rows_acc(args, 0, s.m);
      args.c = want.data();
      reference_nt_rows_acc(args);
      EXPECT_TRUE(testing::bitwise_equal(got, want))
          << "nt_rows_acc " << what.str();
    }
  }
#endif
}

}  // namespace
}  // namespace helios
