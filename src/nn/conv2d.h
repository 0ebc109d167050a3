// 2-D convolution (NCHW, square kernel) with per-filter masking.
#pragma once

#include "nn/layer.h"
#include "tensor/ops.h"

namespace helios::nn {

/// Convolution over batches shaped [N, C, H, W]. The weight is stored as a
/// [out_channels, in_channels*k*k] matrix so that one filter (one neuron in
/// Helios terms) owns one contiguous row; forward runs per-sample im2col +
/// row-masked matmul. Masked filters are skipped in both passes.
class Conv2d final : public Layer {
 public:
  Conv2d(int in_channels, int in_h, int in_w, int out_channels, int kernel,
         int stride, int pad, util::Rng* init, bool maskable = true);

  std::string name() const override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }

  int neuron_count() const override { return maskable_ ? out_channels_ : 0; }
  void set_mask(std::span<const std::uint8_t> mask) override;
  void clear_mask() override { mask_.clear(); }
  std::vector<ParamSlice> neuron_slices(int j) const override;

  double forward_flops_per_sample() const override;
  double activation_numel_per_sample() const override;

  int out_channels() const { return out_channels_; }
  int out_h() const { return geometry_.out_h(); }
  int out_w() const { return geometry_.out_w(); }
  const tensor::Conv2dGeometry& geometry() const { return geometry_; }

 private:
  /// Accumulates dW/db; returns dL/dx when `input_grad`, else an empty
  /// tensor without forming it.
  Tensor backprop(const Tensor& grad_out, bool input_grad);

  tensor::Conv2dGeometry geometry_;
  int out_channels_;
  bool maskable_;
  Tensor weight_;   // [outC, inC*k*k]
  Tensor bias_;     // [outC]
  Tensor dweight_;
  Tensor dbias_;
  std::vector<std::uint8_t> mask_;
  Tensor cached_input_;  // [N, C, H, W]; cols are recomputed in backward
};

}  // namespace helios::nn
