// Model zoo: the three architectures the paper evaluates (LeNet, AlexNet,
// ResNet-18) plus a small MLP for tests.
//
// The convolutional widths are scaled down so the full federated experiments
// run on a single CPU core, but the topologies match the originals (LeNet is
// exact; AlexNet-lite keeps the 5-conv + 3-dense shape; ResNet18-lite keeps
// the 4-stage basic-block residual layout with a configurable block count).
// Every builder takes the input geometry and a seed, so clients can
// construct identical architectures with independent RNG streams. Without a
// seed (std::nullopt) a builder returns a blank model: the same
// architecture with its weights left zero instead of drawn.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "nn/model.h"

namespace helios::models {

/// Input geometry + label arity of a dataset/model pairing.
struct InputSpec {
  int channels = 1;
  int height = 28;
  int width = 28;
  int classes = 10;
};

/// A build's weight-init seed; std::nullopt builds a blank model.
using Seed = std::optional<std::uint64_t>;

/// A named, reproducible architecture: `build(seed)` returns a freshly
/// initialized model. All clients in a federation share one ModelSpec.
struct ModelSpec {
  std::string name;
  InputSpec input;
  std::function<nn::Model(Seed seed)> build;

  /// The architecture without its random init, which is most of a build's
  /// cost. Only for replicas whose parameters and buffers are loaded
  /// (Model::load_params / load_buffers) before anything reads them: the
  /// clients' training replicas and the evaluation replicas.
  nn::Model blank() const { return build(std::nullopt); }
};

/// Classic LeNet-5 (28x28 grayscale by default).
nn::Model make_lenet(const InputSpec& in, Seed seed);

/// AlexNet-style 5-conv / 3-dense network, width-scaled by `width`
/// (channel progression width, 2w, 3w, 3w, 2w).
nn::Model make_alexnet_lite(const InputSpec& in, Seed seed, int width = 8);

/// ResNet-18-style residual network: conv+BN stem then 4 stages of basic
/// blocks with channel progression base, 2b, 4b, 8b and stride-2 stage
/// transitions; `blocks_per_stage=2` recovers the full 18-layer layout.
nn::Model make_resnet18_lite(const InputSpec& in, Seed seed,
                             int base_width = 8, int blocks_per_stage = 1);

/// Two-layer perceptron (Flatten -> Dense -> ReLU -> Dense) for unit tests
/// and micro-experiments.
nn::Model make_mlp(const InputSpec& in, Seed seed, int hidden = 32);

/// MobileNet-style edge network: conv stem + four depthwise-separable
/// blocks (depthwise 3x3 -> GroupNorm -> ReLU -> pointwise 1x1 -> GroupNorm
/// -> ReLU), GroupNorm throughout (no running statistics to federate —
/// the batch-independent normalizer FL deployments prefer). Each depthwise
/// stage follows its preceding pointwise conv's mask, so a neuron is a
/// full separable channel.
nn::Model make_mobilenet_lite(const InputSpec& in, Seed seed,
                              int base_width = 8);

ModelSpec lenet_spec(const InputSpec& in = {1, 28, 28, 10});
ModelSpec alexnet_lite_spec(const InputSpec& in = {3, 32, 32, 10},
                            int width = 8);
ModelSpec resnet18_lite_spec(const InputSpec& in = {3, 16, 16, 100},
                             int base_width = 8, int blocks_per_stage = 1);
ModelSpec mlp_spec(const InputSpec& in, int hidden = 32);
ModelSpec mobilenet_lite_spec(const InputSpec& in = {3, 32, 32, 10},
                              int base_width = 8);

}  // namespace helios::models
