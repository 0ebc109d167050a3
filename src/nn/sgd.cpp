#include <algorithm>

#include "nn/sgd.h"

#include "tensor/backend/dispatch.h"

#include <cmath>
#include <stdexcept>

namespace helios::nn {

Sgd::Sgd(float lr, float momentum, float weight_decay, float clip_norm)
    : lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay),
      clip_norm_(clip_norm) {
  if (lr <= 0.0F) throw std::invalid_argument("Sgd: non-positive lr");
  if (momentum < 0.0F || momentum >= 1.0F) {
    throw std::invalid_argument("Sgd: momentum out of [0, 1)");
  }
  if (weight_decay < 0.0F) {
    throw std::invalid_argument("Sgd: negative weight decay");
  }
  if (clip_norm < 0.0F) {
    throw std::invalid_argument("Sgd: negative clip norm");
  }
}

void Sgd::io(util::CheckpointArchive& ar, std::size_t param_count) {
  ar.io(velocity_);
  ar.expect(velocity_.empty() || velocity_.size() == param_count,
            "checkpoint optimizer velocity does not match the model");
}

void Sgd::step(Model& model) {
  const std::size_t n = model.param_count();
  const bool use_momentum = momentum_ > 0.0F;
  if (use_momentum && velocity_.size() != n) velocity_.assign(n, 0.0F);
  const auto& frozen = model.frozen_flat_mask();

  float clip_scale = 1.0F;
  if (clip_norm_ > 0.0F) {
    double norm_sq = 0.0;
    for (const ParamRef& ref : model.param_refs()) {
      const float* g = ref.grad->data();
      for (std::size_t i = 0; i < ref.param->numel(); ++i) {
        norm_sq += static_cast<double>(g[i]) * g[i];
      }
    }
    const double norm = std::sqrt(norm_sq);
    if (norm > clip_norm_) {
      clip_scale = static_cast<float>(clip_norm_ / norm);
    }
  }

  // The per-element update loop runs through the dispatched kernel table
  // (tensor/backend): elementwise with no FMA, so every backend is bitwise
  // identical to the scalar reference (checkasm pins this).
  const auto& kernels = tensor::backend::active_kernels();
  for (const ParamRef& ref : model.param_refs()) {
    tensor::backend::SgdArgs args;
    args.w = ref.param->data();
    args.g = ref.grad->data();
    args.v = use_momentum ? velocity_.data() + ref.flat_offset : nullptr;
    args.frozen = frozen.empty() ? nullptr : frozen.data() + ref.flat_offset;
    args.count = ref.param->numel();
    args.lr = lr_;
    args.momentum = momentum_;
    args.weight_decay = weight_decay_;
    args.clip_scale = clip_scale;
    kernels.sgd_update(args);
  }
}

}  // namespace helios::nn
