#include "nn/depthwise.h"

#include <stdexcept>

namespace helios::nn {

using tensor::Shape;

DepthwiseConv2d::DepthwiseConv2d(int channels, int in_h, int in_w, int kernel,
                                 int stride, int pad, util::Rng* init,
                                 bool follower)
    : channels_(channels),
      in_h_(in_h),
      in_w_(in_w),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      follower_(follower),
      weight_(he_weights({channels, kernel * kernel}, kernel * kernel, init)),
      bias_(Tensor::zeros({channels})),
      dweight_(Tensor::zeros({channels, kernel * kernel})),
      dbias_(Tensor::zeros({channels})) {
  if (channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0) {
    throw std::invalid_argument("DepthwiseConv2d: bad geometry");
  }
  if (out_h() <= 0 || out_w() <= 0) {
    throw std::invalid_argument("DepthwiseConv2d: kernel larger than input");
  }
}

std::string DepthwiseConv2d::name() const {
  return "DepthwiseConv2d(" + std::to_string(channels_) + ", k=" +
         std::to_string(kernel_) + ", s=" + std::to_string(stride_) + ")";
}

Tensor DepthwiseConv2d::forward(const Tensor& x, bool training) {
  if (x.shape() != Shape{x.dim(0), channels_, in_h_, in_w_}) {
    throw std::invalid_argument(name() + ": bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  if (training) cached_input_ = x;
  const int n = x.dim(0), oh = out_h(), ow = out_w();
  Tensor y({n, channels_, oh, ow});
  const float* xp = x.data();
  float* yp = y.data();
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      if (!channel_active(c)) continue;  // output stays zero
      const float* src =
          xp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      float* dst =
          yp + (static_cast<std::size_t>(i) * channels_ + c) * out_plane;
      const float* w = weight_.data() + static_cast<std::size_t>(c) * kernel_ * kernel_;
      const float b = bias_.at(c);
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          float acc = b;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ + ky - pad_;
            if (iy < 0 || iy >= in_h_) continue;
            for (int kx = 0; kx < kernel_; ++kx) {
              const int ix = ox * stride_ + kx - pad_;
              if (ix < 0 || ix >= in_w_) continue;
              acc += w[ky * kernel_ + kx] * src[iy * in_w_ + ix];
            }
          }
          dst[static_cast<std::size_t>(oy) * ow + ox] = acc;
        }
      }
    }
  }
  return y;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) {
    throw std::logic_error(name() + ": backward before training forward");
  }
  const int n = cached_input_.dim(0), oh = out_h(), ow = out_w();
  if (grad_out.shape() != Shape{n, channels_, oh, ow}) {
    throw std::invalid_argument(name() + ": bad grad shape");
  }
  Tensor dx(cached_input_.shape());
  const float* xp = cached_input_.data();
  const float* gp = grad_out.data();
  float* dp = dx.data();
  const std::size_t in_plane = static_cast<std::size_t>(in_h_) * in_w_;
  const std::size_t out_plane = static_cast<std::size_t>(oh) * ow;
  for (int i = 0; i < n; ++i) {
    for (int c = 0; c < channels_; ++c) {
      if (!channel_active(c)) continue;
      const float* src =
          xp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      const float* g =
          gp + (static_cast<std::size_t>(i) * channels_ + c) * out_plane;
      float* dsrc =
          dp + (static_cast<std::size_t>(i) * channels_ + c) * in_plane;
      const float* w =
          weight_.data() + static_cast<std::size_t>(c) * kernel_ * kernel_;
      float* dw =
          dweight_.data() + static_cast<std::size_t>(c) * kernel_ * kernel_;
      float db = 0.0F;
      for (int oy = 0; oy < oh; ++oy) {
        for (int ox = 0; ox < ow; ++ox) {
          const float go = g[static_cast<std::size_t>(oy) * ow + ox];
          db += go;
          for (int ky = 0; ky < kernel_; ++ky) {
            const int iy = oy * stride_ + ky - pad_;
            if (iy < 0 || iy >= in_h_) continue;
            for (int kx = 0; kx < kernel_; ++kx) {
              const int ix = ox * stride_ + kx - pad_;
              if (ix < 0 || ix >= in_w_) continue;
              dw[ky * kernel_ + kx] += go * src[iy * in_w_ + ix];
              dsrc[iy * in_w_ + ix] += go * w[ky * kernel_ + kx];
            }
          }
        }
      }
      dbias_.at(c) += db;
    }
  }
  return dx;
}

void DepthwiseConv2d::set_mask(std::span<const std::uint8_t> mask) {
  check_mask_size(mask, channels_, "DepthwiseConv2d");
  mask_.assign(mask.begin(), mask.end());
}

std::vector<ParamSlice> DepthwiseConv2d::neuron_slices(int j) const {
  if (j < 0 || j >= channels_) {
    throw std::out_of_range("DepthwiseConv2d::neuron_slices");
  }
  const std::size_t taps = static_cast<std::size_t>(kernel_) * kernel_;
  return {
      {0, static_cast<std::size_t>(j) * taps, taps},
      {1, static_cast<std::size_t>(j), 1},
  };
}

double DepthwiseConv2d::forward_flops_per_sample() const {
  const int active = mask_.empty() ? channels_ : active_count(mask_);
  return static_cast<double>(active) * kernel_ * kernel_ * out_h() *
         out_w() * 2.0;
}

double DepthwiseConv2d::activation_numel_per_sample() const {
  const int active = mask_.empty() ? channels_ : active_count(mask_);
  return static_cast<double>(active) * out_h() * out_w();
}

}  // namespace helios::nn
