// Depthwise 2-D convolution (channel multiplier 1) — the building block of
// MobileNet-style edge architectures. Each input channel is filtered by its
// own k x k kernel; one channel is one maskable neuron.
#pragma once

#include "nn/layer.h"

namespace helios::nn {

class DepthwiseConv2d final : public Layer {
 public:
  /// `follower = true` makes the layer a mask follower: its channels share
  /// identity with the preceding (pointwise) convolution's output channels,
  /// so its per-channel parameters attach to that layer's neurons and its
  /// mask mirrors the leader's — the natural wiring inside a
  /// depthwise-separable block.
  DepthwiseConv2d(int channels, int in_h, int in_w, int kernel, int stride,
                  int pad, util::Rng* init, bool follower = false);

  std::string name() const override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }

  int neuron_count() const override { return channels_; }
  bool mask_follower() const override { return follower_; }
  void set_mask(std::span<const std::uint8_t> mask) override;
  void clear_mask() override { mask_.clear(); }
  std::vector<ParamSlice> neuron_slices(int j) const override;

  double forward_flops_per_sample() const override;
  double activation_numel_per_sample() const override;

  int out_h() const { return (in_h_ + 2 * pad_ - kernel_) / stride_ + 1; }
  int out_w() const { return (in_w_ + 2 * pad_ - kernel_) / stride_ + 1; }
  int channels() const { return channels_; }

 private:
  bool channel_active(int c) const {
    return mask_.empty() || mask_[static_cast<std::size_t>(c)] != 0;
  }

  int channels_, in_h_, in_w_, kernel_, stride_, pad_;
  bool follower_;
  Tensor weight_;  // [C, k*k]
  Tensor bias_;    // [C]
  Tensor dweight_, dbias_;
  std::vector<std::uint8_t> mask_;
  Tensor cached_input_;
};

}  // namespace helios::nn
