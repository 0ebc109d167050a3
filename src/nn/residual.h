// Basic ResNet residual block (two 3x3 conv+BN stages plus identity or
// 1x1-projection skip). A composite layer: its sub-layers are exposed as
// leaves so the Model can flatten parameters and route neuron masks.
//
// Mask semantics inside a block: both 3x3 convs are maskable (each filter +
// its BatchNorm affine pair is one logical neuron). The projection conv is
// structural and never masked — when soft-training drops a conv2 filter, the
// block's output on that channel degrades gracefully to the skip path, which
// is exactly the "neuron sits out this cycle without leaving the model"
// behaviour Helios requires.
#pragma once

#include <memory>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/layer.h"

namespace helios::nn {

class ResidualBlock final : public Layer {
 public:
  ResidualBlock(int in_channels, int in_h, int in_w, int out_channels,
                int stride, util::Rng* init);

  std::string name() const override;
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;

  void append_leaves(std::vector<Layer*>& out) override;

  /// (follower, leader) pairs for the Model's mask wiring.
  std::vector<std::pair<Layer*, Layer*>> follower_links();

  int out_h() const { return conv1_->out_h(); }
  int out_w() const { return conv1_->out_w(); }
  int out_channels() const { return conv2_->out_channels(); }

 private:
  std::unique_ptr<Conv2d> conv1_;
  std::unique_ptr<BatchNorm2d> bn1_;
  std::unique_ptr<ReLU> relu1_;
  std::unique_ptr<Conv2d> conv2_;
  std::unique_ptr<BatchNorm2d> bn2_;
  std::unique_ptr<Conv2d> proj_;        // null for identity skip
  std::unique_ptr<BatchNorm2d> projbn_;
  std::unique_ptr<ReLU> relu2_;
};

}  // namespace helios::nn
