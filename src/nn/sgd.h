// Stochastic gradient descent with optional momentum and weight decay.
//
// The optimizer respects the model's frozen-parameter mask: parameters of
// neurons sitting out the current soft-training cycle receive no update of
// any kind (no momentum drift, no weight decay), so a straggler's skipped
// neurons stay bit-identical to the last value received from the server.
#pragma once

#include "nn/model.h"
#include "util/checkpoint_archive.h"

namespace helios::nn {

class Sgd {
 public:
  /// `clip_norm > 0` rescales the whole gradient so its global L2 norm is
  /// at most clip_norm before the update (0 disables). Clipping keeps the
  /// highly skewed local objectives of Non-IID federated clients stable at
  /// learning rates the IID setting tolerates.
  explicit Sgd(float lr, float momentum = 0.0F, float weight_decay = 0.0F,
               float clip_norm = 0.0F);

  /// Applies one update using the gradients accumulated in `model`.
  void step(Model& model);

  /// Checkpoint section: the velocity buffer is the only cross-step state.
  /// Empty until the first momentum step (lazily sized), and stays empty
  /// forever when momentum == 0; a restore refuses any other length than
  /// `param_count`.
  void io(util::CheckpointArchive& ar, std::size_t param_count);

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  float clip_norm_;
  std::vector<float> velocity_;  // flat, lazily sized to the model
};

}  // namespace helios::nn
