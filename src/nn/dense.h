// Fully-connected layer with per-output-unit (neuron) masking.
#pragma once

#include "nn/layer.h"

namespace helios::nn {

/// y = x W^T + b over a batch x[N, in]. W is stored [out, in] so that one
/// neuron owns one contiguous row. When a mask is installed, inactive units
/// produce zero activations, receive no gradient, and skip their FLOPs.
class Dense final : public Layer {
 public:
  /// `maskable=false` is used for classifier heads, whose output units are
  /// classes and must never be dropped by soft-training. A null `init`
  /// builds a blank layer (nn::he_weights).
  Dense(int in_features, int out_features, util::Rng* init,
        bool maskable = true);

  std::string name() const override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;

  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&dweight_, &dbias_}; }

  int neuron_count() const override { return maskable_ ? out_features_ : 0; }
  void set_mask(std::span<const std::uint8_t> mask) override;
  void clear_mask() override { mask_.clear(); }
  std::vector<ParamSlice> neuron_slices(int j) const override;

  double forward_flops_per_sample() const override;
  double activation_numel_per_sample() const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  /// Accumulates dW/db; returns dL/dx when `input_grad`, else an empty
  /// tensor without forming it.
  Tensor backprop(const Tensor& grad_out, bool input_grad);

  int in_features_;
  int out_features_;
  bool maskable_;
  Tensor weight_;   // [out, in]
  Tensor bias_;     // [out]
  Tensor dweight_;
  Tensor dbias_;
  std::vector<std::uint8_t> mask_;  // empty = all active
  Tensor cached_input_;             // training-mode forward input
};

}  // namespace helios::nn
