// Model container: an ordered stack of layers with flat-parameter access and
// a global neuron index.
//
// The flat parameter vector is the unit of exchange in federated learning
// (clients upload it, the server averages it), and the neuron index maps
// every logical neuron — a dense unit or a conv filter together with any
// follower parameters such as its BatchNorm affine pair — to the slices of
// that vector it owns. Soft-training, the contribution metric U^ij, rotation
// regulation and per-neuron aggregation are all expressed against this index.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/layer.h"

namespace helios::nn {

/// Contiguous run inside the model's flat parameter vector.
struct FlatSlice {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// One logical neuron: unit `unit` of maskable leaf `leader`, plus the flat
/// slices of every parameter it owns (leader row/filter + follower affines).
struct NeuronInfo {
  Layer* leader = nullptr;
  int unit = 0;
  std::vector<FlatSlice> slices;
  /// Total parameter count across slices.
  std::size_t param_count() const;
};

/// A parameter tensor, its gradient, and its offset in the flat vector.
struct ParamRef {
  Tensor* param = nullptr;
  Tensor* grad = nullptr;
  std::size_t flat_offset = 0;
};

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer; returns a stable reference for wiring calls.
  /// Must be called before finalize().
  Layer& add(std::unique_ptr<Layer> layer);

  /// Declares `follower`'s mask (and neuron-parameter ownership) to be
  /// dictated by `leader`. Both must be leaves already added (directly or
  /// inside a composite). Composite layers register their internal links
  /// automatically.
  void link_follower(Layer& follower, Layer& leader);

  /// Freezes the architecture: builds the leaf list, flat parameter layout
  /// and neuron index. Called implicitly by the accessors that need it.
  void finalize();
  bool finalized() const { return finalized_; }

  // -- Execution ------------------------------------------------------------

  Tensor forward(const Tensor& x, bool training);
  /// Backpropagates down to the first layer with parameters, accumulating
  /// every parameter gradient; dL/dinput is never formed.
  void backward(const Tensor& grad_out);
  void zero_grad();

  // -- Parameters -----------------------------------------------------------

  std::size_t param_count();
  const std::vector<ParamRef>& param_refs();
  /// Serializes all parameters into `out` (size must equal param_count()).
  void copy_params(std::span<float> out);
  std::vector<float> params_flat();
  /// Loads all parameters from `in` (size must equal param_count()).
  void load_params(std::span<const float> in);

  // -- Buffers (non-learnable federated state, e.g. BatchNorm stats) -------

  std::size_t buffer_count();
  void copy_buffers(std::span<float> out);
  std::vector<float> buffers_flat();
  void load_buffers(std::span<const float> in);

  // -- Neurons & masking ----------------------------------------------------

  /// Global neuron count m (leaders only; followers attribute to leaders).
  int neuron_total();
  const std::vector<NeuronInfo>& neurons();

  /// Installs a global mask (size neuron_total()); distributed to leaders
  /// and mirrored onto their followers. An all-ones mask equals clear_mask().
  void set_neuron_mask(std::span<const std::uint8_t> mask);
  void clear_neuron_mask();
  /// Current global mask; empty when fully active.
  const std::vector<std::uint8_t>& neuron_mask() const { return mask_; }

  /// Byte-per-flat-parameter mask: 1 where the parameter is frozen because
  /// its neuron is inactive. Empty when no mask is installed.
  const std::vector<std::uint8_t>& frozen_flat_mask();

  // -- Cost model hooks -------------------------------------------------------

  /// Forward multiply-accumulate FLOPs per sample under the current mask.
  double forward_flops_per_sample();
  /// Training FLOPs per sample (forward + backward ~ 3x forward).
  double train_flops_per_sample();
  /// Peak activation element count per sample (sum over leaves).
  double activation_numel_per_sample();

  std::vector<Layer*>& leaves();

 private:
  void require_finalized() const;

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<Layer*> leaves_;
  std::size_t first_param_layer_ = 0;  // index into layers_
  std::vector<std::pair<Layer*, Layer*>> links_;  // (follower, leader)
  std::vector<ParamRef> param_refs_;
  std::size_t param_count_ = 0;
  std::vector<NeuronInfo> neurons_;
  std::vector<std::uint8_t> mask_;
  std::vector<std::uint8_t> frozen_flat_;
  bool frozen_flat_dirty_ = true;
  bool finalized_ = false;
};

/// One SGD step over a batch. Returns the mean loss and the number of
/// correctly classified samples (argmax vs label).
struct StepResult {
  double loss = 0.0;
  int correct = 0;
};

class Sgd;  // sgd.h
StepResult train_step(Model& model, Sgd& opt, const Tensor& x,
                      std::span<const int> labels);

/// Inference-mode correct-count on a batch.
int evaluate_batch(Model& model, const Tensor& x, std::span<const int> labels);

}  // namespace helios::nn
