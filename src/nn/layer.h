// Layer abstraction with explicit forward/backward and first-class support
// for *neuron masking* — the mechanism behind Helios soft-training.
//
// A "neuron" is an output unit of a layer: a dense row or a conv filter.
// Maskable layers accept a byte mask over their output units; masked units
// are excluded from forward and backward (their activations are zero, their
// parameters receive no gradient, and their FLOPs are not spent). A layer can
// also be a *mask follower* (e.g. BatchNorm after a conv): it carries
// per-unit parameters that logically belong to the leading layer's neurons
// and mirrors the leader's mask instead of owning neurons of its own.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace helios::nn {

using tensor::Tensor;

/// Locates a contiguous run of parameters belonging to one neuron:
/// `param_index` selects the tensor in the layer's params() list, and
/// [offset, offset+length) the run inside it.
struct ParamSlice {
  int param_index = 0;
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Base class for all layers (including composites such as ResidualBlock).
class Layer {
 public:
  virtual ~Layer() = default;

  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual std::string name() const = 0;

  /// Computes the layer output for a batch. `training` selects batch-stat /
  /// cache behaviour (BatchNorm, dropout-style layers).
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Propagates `grad_out` (dL/doutput) to dL/dinput, accumulating parameter
  /// gradients along the way. Must be called after a training-mode forward.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// backward() for a layer whose dL/dinput nobody reads (a model's first
  /// layer with parameters): accumulates the same parameter gradients.
  /// Layers that can skip forming the input gradient override it.
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  /// Learnable parameter tensors (paired index-wise with grads()).
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Non-learnable state that must travel with the model in federated
  /// exchange (e.g. BatchNorm running statistics). Not optimized, not part
  /// of the neuron index; the server averages buffers across clients.
  virtual std::vector<Tensor*> buffers() { return {}; }

  /// Zeroes all parameter gradients.
  void zero_grad();

  /// Number of maskable output units; 0 for non-maskable layers.
  virtual int neuron_count() const { return 0; }

  /// True for layers whose mask is dictated by a leading layer (BatchNorm).
  virtual bool mask_follower() const { return false; }

  /// Installs an output-unit mask (size must equal neuron_count()).
  /// No-op default for non-maskable layers.
  virtual void set_mask(std::span<const std::uint8_t> mask);

  /// Restores the fully-active state.
  virtual void clear_mask() {}

  /// Parameter slices owned by output unit `j` (for contribution metrics and
  /// per-neuron aggregation). Empty for layers without per-unit parameters.
  virtual std::vector<ParamSlice> neuron_slices(int j) const {
    (void)j;
    return {};
  }

  /// Forward multiply-accumulate FLOPs per sample under the current mask.
  virtual double forward_flops_per_sample() const { return 0.0; }

  /// Output activation element count per sample (memory model input).
  virtual double activation_numel_per_sample() const { return 0.0; }

  /// Appends the leaf layers in execution order (composites recurse).
  virtual void append_leaves(std::vector<Layer*>& out) { out.push_back(this); }
};

/// Throws unless `mask.size() == expected`; shared by maskable layers.
void check_mask_size(std::span<const std::uint8_t> mask, int expected,
                     const char* layer_name);

/// Number of active entries in a mask.
int active_count(std::span<const std::uint8_t> mask);

/// He-initialized weights, N(0, 2 / fan_in) drawn from `init`; zeros when
/// `init` is null. A layer built without an init stream is blank: its
/// parameters are meant to be loaded (Model::load_params) before use.
Tensor he_weights(tensor::Shape shape, int fan_in, util::Rng* init);

}  // namespace helios::nn
