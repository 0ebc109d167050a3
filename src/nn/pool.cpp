#include "nn/pool.h"

#include <limits>
#include <stdexcept>
#include <type_traits>

namespace helios::nn {

using tensor::Shape;

MaxPool2d::MaxPool2d(int channels, int in_h, int in_w, int kernel, int stride)
    : channels_(channels),
      in_h_(in_h),
      in_w_(in_w),
      kernel_(kernel),
      stride_(stride) {
  if (channels <= 0 || kernel <= 0 || stride <= 0 || in_h < kernel ||
      in_w < kernel) {
    throw std::invalid_argument("MaxPool2d: bad geometry");
  }
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(k=" + std::to_string(kernel_) + ")";
}

namespace {

/// Max over every window of `planes` contiguous [in_h, in_w] planes: the
/// first strictly greater tap wins, starting from -inf at plane index 0,
/// so ties keep the earliest tap and an all-NaN or all--inf window routes
/// to index 0. The taps fold as selects and the outputs are written by
/// index, so with `Kernel`/`Stride` a std::integral_constant the window
/// unrolls and the ox loop vectorizes. `argmax` is an int* (training) or
/// nullptr (eval, nothing recorded).
template <typename Kernel, typename Stride, typename Argmax>
void max_pool(const float* x, int planes, int in_h, int in_w, int oh, int ow,
              Kernel kernel, Stride stride, float* y, Argmax argmax) {
  const std::size_t in_plane = static_cast<std::size_t>(in_h) * in_w;
  for (int p = 0; p < planes; ++p) {
    const float* plane = x + static_cast<std::size_t>(p) * in_plane;
    for (int oy = 0; oy < oh; ++oy) {
      const std::size_t row = (static_cast<std::size_t>(p) * oh + oy) * ow;
      for (int ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        int best_idx = 0;
        for (int ky = 0; ky < kernel; ++ky) {
          const int iy = oy * stride + ky;
          for (int kx = 0; kx < kernel; ++kx) {
            const int idx = iy * in_w + ox * stride + kx;
            const bool greater = plane[idx] > best;
            best = greater ? plane[idx] : best;
            best_idx = greater ? idx : best_idx;
          }
        }
        y[row + ox] = best;
        if constexpr (!std::is_null_pointer_v<Argmax>) {
          argmax[row + ox] = best_idx;
        }
      }
    }
  }
}

}  // namespace

Tensor MaxPool2d::forward(const Tensor& x, bool training) {
  if (x.shape() != Shape{x.dim(0), channels_, in_h_, in_w_}) {
    throw std::invalid_argument(name() + ": bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  const int n = x.dim(0), oh = out_h(), ow = out_w();
  Tensor y({n, channels_, oh, ow});
  if (training) {
    argmax_.resize(static_cast<std::size_t>(n) * channels_ * oh * ow);
    cached_batch_ = n;
  }
  auto run = [&](auto kernel, auto stride) {
    if (training) {
      max_pool(x.data(), n * channels_, in_h_, in_w_, oh, ow, kernel, stride,
               y.data(), argmax_.data());
    } else {
      max_pool(x.data(), n * channels_, in_h_, in_w_, oh, ow, kernel, stride,
               y.data(), nullptr);
    }
  };
  // Every pool in the model zoo is 2x2/stride 2.
  if (kernel_ == 2 && stride_ == 2) {
    run(std::integral_constant<int, 2>{}, std::integral_constant<int, 2>{});
  } else {
    run(kernel_, stride_);
  }
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  const int n = cached_batch_, oh = out_h(), ow = out_w();
  if (n == 0 || grad_out.shape() != Shape{n, channels_, oh, ow}) {
    throw std::logic_error(name() + ": backward shape mismatch");
  }
  Tensor dx({n, channels_, in_h_, in_w_});
  float* dp = dx.data();
  const float* gp = grad_out.data();
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  std::size_t out_idx = 0;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      float* plane =
          dp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      for (int p = 0; p < oh * ow; ++p, ++out_idx) {
        plane[argmax_[out_idx]] += gp[out_idx];
      }
    }
  }
  return dx;
}

double MaxPool2d::activation_numel_per_sample() const {
  return static_cast<double>(channels_) * out_h() * out_w();
}

GlobalAvgPool::GlobalAvgPool(int channels, int in_h, int in_w)
    : channels_(channels), in_h_(in_h), in_w_(in_w) {
  if (channels <= 0 || in_h <= 0 || in_w <= 0) {
    throw std::invalid_argument("GlobalAvgPool: bad geometry");
  }
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  if (x.shape() != Shape{x.dim(0), channels_, in_h_, in_w_}) {
    throw std::invalid_argument("GlobalAvgPool: bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  const int n = x.dim(0);
  if (training) cached_batch_ = n;
  Tensor y({n, channels_});
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t plane = static_cast<std::size_t>(in_h_) * in_w_;
  const float inv = 1.0F / static_cast<float>(plane);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      const float* src =
          xp + (static_cast<std::size_t>(i) * channels_ + c) * plane;
      float acc = 0.0F;
      for (std::size_t p = 0; p < plane; ++p) acc += src[p];
      yp[static_cast<std::size_t>(i) * channels_ + c] = acc * inv;
    }
  }
  return y;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const int n = cached_batch_;
  if (n == 0 || grad_out.shape() != Shape{n, channels_}) {
    throw std::logic_error("GlobalAvgPool: backward shape mismatch");
  }
  Tensor dx({n, channels_, in_h_, in_w_});
  float* dp = dx.data();
  const float* gp = grad_out.data();
  const std::size_t plane = static_cast<std::size_t>(in_h_) * in_w_;
  const float inv = 1.0F / static_cast<float>(plane);
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      const float g = gp[static_cast<std::size_t>(i) * channels_ + c] * inv;
      float* dst = dp + (static_cast<std::size_t>(i) * channels_ + c) * plane;
      for (std::size_t p = 0; p < plane; ++p) dst[p] = g;
    }
  }
  return dx;
}

}  // namespace helios::nn
