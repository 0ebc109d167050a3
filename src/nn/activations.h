// Elementwise activation layers.
#pragma once

#include "nn/layer.h"

namespace helios::nn {

/// Rectified linear unit; works on any input rank.
class ReLU final : public Layer {
 public:
  std::string name() const override { return "ReLU"; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  double forward_flops_per_sample() const override { return 0.0; }

 private:
  std::vector<std::uint8_t> positive_;  // per-element x > 0 cache
  std::size_t cached_numel_ = 0;
};

}  // namespace helios::nn
