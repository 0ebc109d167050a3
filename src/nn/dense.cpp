#include "nn/dense.h"

#include <stdexcept>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace helios::nn {

using tensor::Shape;

Dense::Dense(int in_features, int out_features, util::Rng* init,
             bool maskable)
    : in_features_(in_features),
      out_features_(out_features),
      maskable_(maskable),
      // He initialization suits the ReLU networks used throughout.
      weight_(he_weights({out_features, in_features}, in_features, init)),
      bias_(Tensor::zeros({out_features})),
      dweight_(Tensor::zeros({out_features, in_features})),
      dbias_(Tensor::zeros({out_features})) {
  if (in_features <= 0 || out_features <= 0) {
    throw std::invalid_argument("Dense: non-positive feature count");
  }
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_features_) + "->" +
         std::to_string(out_features_) + ")";
}

Tensor Dense::forward(const Tensor& x, bool training) {
  if (x.ndim() != 2 || x.dim(1) != in_features_) {
    throw std::invalid_argument(name() + ": bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  if (training) cached_input_ = x;
  HELIOS_TRACE_SPAN("dense.forward",
                    {{"in", in_features_}, {"out", out_features_}});
  Tensor y({x.dim(0), out_features_});
  tensor::matmul_nt_masked_cols_into(x, weight_, mask_, y);
  float* yp = y.data();
  const float* bp = bias_.data();
  const int n = x.dim(0);
  for (int i = 0; i < n; ++i) {
    float* row = yp + static_cast<std::size_t>(i) * out_features_;
    for (int j = 0; j < out_features_; ++j) {
      if (mask_.empty() || mask_[static_cast<std::size_t>(j)]) row[j] += bp[j];
    }
  }
  return y;
}

Tensor Dense::backward(const Tensor& grad_out) {
  return backprop(grad_out, /*input_grad=*/true);
}

void Dense::backward_params(const Tensor& grad_out) {
  backprop(grad_out, /*input_grad=*/false);
}

Tensor Dense::backprop(const Tensor& grad_out, bool input_grad) {
  if (cached_input_.empty()) {
    throw std::logic_error(name() + ": backward before training forward");
  }
  if (grad_out.shape() !=
      Shape{cached_input_.dim(0), out_features_}) {
    throw std::invalid_argument(name() + ": bad grad shape");
  }
  HELIOS_TRACE_SPAN("dense.backward",
                    {{"in", in_features_}, {"out", out_features_}});
  // dW += dY^T x restricted to active output rows.
  Tensor dw({out_features_, in_features_});
  tensor::matmul_tn_masked_out_rows_into(grad_out, cached_input_, mask_, dw);
  tensor::add_inplace(dweight_, dw);
  // db += column sums of dY over active units.
  const int n = grad_out.dim(0);
  const float* gp = grad_out.data();
  float* dbp = dbias_.data();
  for (int i = 0; i < n; ++i) {
    const float* row = gp + static_cast<std::size_t>(i) * out_features_;
    for (int j = 0; j < out_features_; ++j) {
      if (mask_.empty() || mask_[static_cast<std::size_t>(j)]) dbp[j] += row[j];
    }
  }
  if (!input_grad) return {};
  // dx = dY W restricted to active inner units.
  Tensor dx({n, in_features_});
  tensor::matmul_nn_masked_inner_accumulate(grad_out, weight_, mask_, dx);
  return dx;
}

void Dense::set_mask(std::span<const std::uint8_t> mask) {
  if (!maskable_) {
    throw std::logic_error(name() + ": classifier head cannot be masked");
  }
  check_mask_size(mask, out_features_, "Dense");
  mask_.assign(mask.begin(), mask.end());
}

std::vector<ParamSlice> Dense::neuron_slices(int j) const {
  if (j < 0 || j >= out_features_) {
    throw std::out_of_range("Dense::neuron_slices");
  }
  return {
      {0, static_cast<std::size_t>(j) * in_features_,
       static_cast<std::size_t>(in_features_)},  // weight row j
      {1, static_cast<std::size_t>(j), 1},       // bias j
  };
}

double Dense::forward_flops_per_sample() const {
  const int active =
      mask_.empty() ? out_features_ : active_count(mask_);
  // Multiply-add counted as 2 FLOPs, plus the bias add.
  return static_cast<double>(active) * in_features_ * 2.0 + active;
}

double Dense::activation_numel_per_sample() const {
  return mask_.empty() ? out_features_ : active_count(mask_);
}

}  // namespace helios::nn
