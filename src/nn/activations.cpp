#include "nn/activations.h"

#include <cmath>
#include <stdexcept>

namespace helios::nn {

// Both passes are unconditional selects, which the compiler vectorizes.
// Eval keeps y < 0 ? 0 : y, so NaN and -0.0 pass through; training zeroes
// every element that is not > 0, NaN and -0.0 included, and backward
// passes the gradient only where the training forward saw x > 0.
Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor y = x;
  float* yp = y.data();
  const std::size_t n = y.numel();
  if (training) {
    positive_.resize(n);
    cached_numel_ = n;
    std::uint8_t* pos = positive_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const float v = yp[i];
      pos[i] = v > 0.0F;
      yp[i] = v > 0.0F ? v : 0.0F;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) yp[i] = yp[i] < 0.0F ? 0.0F : yp[i];
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_numel_) {
    throw std::logic_error("ReLU: backward/forward size mismatch");
  }
  Tensor dx = grad_out;
  float* dp = dx.data();
  const std::uint8_t* pos = positive_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    dp[i] = pos[i] != 0 ? dp[i] : 0.0F;
  }
  return dx;
}

LeakyReLU::LeakyReLU(float negative_slope) : slope_(negative_slope) {
  if (negative_slope < 0.0F || negative_slope >= 1.0F) {
    throw std::invalid_argument("LeakyReLU: slope out of [0, 1)");
  }
}

std::string LeakyReLU::name() const {
  return "LeakyReLU(" + std::to_string(slope_) + ")";
}

Tensor LeakyReLU::forward(const Tensor& x, bool training) {
  Tensor y = x;
  float* yp = y.data();
  if (training) {
    positive_.resize(y.numel());
    cached_numel_ = y.numel();
  }
  for (std::size_t i = 0; i < y.numel(); ++i) {
    const bool pos = yp[i] > 0.0F;
    if (training) positive_[i] = pos;
    if (!pos) yp[i] *= slope_;
  }
  return y;
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_numel_) {
    throw std::logic_error("LeakyReLU: backward/forward size mismatch");
  }
  Tensor dx = grad_out;
  float* dp = dx.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    if (!positive_[i]) dp[i] *= slope_;
  }
  return dx;
}

Tensor Tanh::forward(const Tensor& x, bool training) {
  Tensor y = x;
  for (float& v : y.flat()) v = std::tanh(v);
  if (training) cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_output_.numel()) {
    throw std::logic_error("Tanh: backward/forward size mismatch");
  }
  Tensor dx = grad_out;
  float* dp = dx.data();
  const float* yp = cached_output_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    dp[i] *= 1.0F - yp[i] * yp[i];
  }
  return dx;
}

Tensor Sigmoid::forward(const Tensor& x, bool training) {
  Tensor y = x;
  for (float& v : y.flat()) v = 1.0F / (1.0F + std::exp(-v));
  if (training) cached_output_ = y;
  return y;
}

Tensor Sigmoid::backward(const Tensor& grad_out) {
  if (grad_out.numel() != cached_output_.numel()) {
    throw std::logic_error("Sigmoid: backward/forward size mismatch");
  }
  Tensor dx = grad_out;
  float* dp = dx.data();
  const float* yp = cached_output_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) {
    dp[i] *= yp[i] * (1.0F - yp[i]);
  }
  return dx;
}

}  // namespace helios::nn
