#include "nn/activations.h"

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

}  // namespace helios::nn
