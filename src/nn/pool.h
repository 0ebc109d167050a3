// Pooling layers (NCHW).
#pragma once

#include "nn/layer.h"

namespace helios::nn {

/// Non-overlapping-or-strided max pooling with a square window.
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(int channels, int in_h, int in_w, int kernel, int stride);

  std::string name() const override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  double activation_numel_per_sample() const override;

  int out_h() const { return (in_h_ - kernel_) / stride_ + 1; }
  int out_w() const { return (in_w_ - kernel_) / stride_ + 1; }

 private:
  int channels_, in_h_, in_w_, kernel_, stride_;
  std::vector<int> argmax_;  // flat input index per output element
  int cached_batch_ = 0;
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool final : public Layer {
 public:
  GlobalAvgPool(int channels, int in_h, int in_w);

  std::string name() const override { return "GlobalAvgPool"; }
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  double activation_numel_per_sample() const override { return channels_; }

 private:
  int channels_, in_h_, in_w_;
  int cached_batch_ = 0;
};

}  // namespace helios::nn
