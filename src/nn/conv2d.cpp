#include <algorithm>

#include "nn/conv2d.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/thread_pool.h"

namespace helios::nn {

using tensor::Shape;

Conv2d::Conv2d(int in_channels, int in_h, int in_w, int out_channels,
               int kernel, int stride, int pad, util::Rng* init,
               bool maskable)
    : geometry_{in_channels, in_h, in_w, kernel, stride, pad},
      out_channels_(out_channels),
      maskable_(maskable),
      weight_(he_weights({out_channels, geometry_.patch_size()},
                         geometry_.patch_size(), init)),
      bias_(Tensor::zeros({out_channels})),
      dweight_(Tensor::zeros({out_channels, geometry_.patch_size()})),
      dbias_(Tensor::zeros({out_channels})) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 ||
      pad < 0) {
    throw std::invalid_argument("Conv2d: bad geometry");
  }
  if (geometry_.out_h() <= 0 || geometry_.out_w() <= 0) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(geometry_.in_channels) + "->" +
         std::to_string(out_channels_) + ", k=" +
         std::to_string(geometry_.kernel) + ", s=" +
         std::to_string(geometry_.stride) + ")";
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  const Shape want{x.dim(0), geometry_.in_channels, geometry_.in_h,
                   geometry_.in_w};
  if (x.ndim() != 4 || x.shape() != want) {
    throw std::invalid_argument(name() + ": bad input shape " +
                                tensor::shape_to_string(x.shape()));
  }
  if (training) cached_input_ = x;
  HELIOS_TRACE_SPAN("conv2d.forward",
                    {{"out_c", out_channels_}, {"n", x.dim(0)}});
  const int n = x.dim(0);
  const int oh = geometry_.out_h(), ow = geometry_.out_w();
  const int plane = oh * ow;
  const std::size_t in_sample =
      static_cast<std::size_t>(geometry_.in_channels) * geometry_.in_h *
      geometry_.in_w;
  Tensor y({n, out_channels_, oh, ow});
  // Samples are independent: the batch splits across the pool, each chunk
  // with its own im2col scratch. Every output plane is written by exactly
  // one chunk with the sequential per-sample math, so the result is
  // bit-identical at any thread count.
  auto run_samples = [&](std::int64_t lo, std::int64_t hi) {
    Tensor cols({geometry_.patch_size(), plane});
    Tensor ys({out_channels_, plane});
    for (std::int64_t i = lo; i < hi; ++i) {
      tensor::im2col(x.data() + static_cast<std::size_t>(i) * in_sample,
                     geometry_, cols.data());
      tensor::matmul_masked_rows_into(weight_, cols, mask_, ys);
      float* yp =
          y.data() + static_cast<std::size_t>(i) * out_channels_ * plane;
      const float* ysp = ys.data();
      const float* bp = bias_.data();
      for (int oc = 0; oc < out_channels_; ++oc) {
        const bool active =
            mask_.empty() || mask_[static_cast<std::size_t>(oc)];
        float* dst = yp + static_cast<std::size_t>(oc) * plane;
        const float* src = ysp + static_cast<std::size_t>(oc) * plane;
        if (active) {
          const float b = bp[oc];
          for (int p = 0; p < plane; ++p) dst[p] = src[p] + b;
        } else {
          for (int p = 0; p < plane; ++p) dst[p] = 0.0F;
        }
      }
    }
  };
  const std::int64_t per_sample = static_cast<std::int64_t>(out_channels_) *
                                  geometry_.patch_size() * plane;
  tensor::run_chunked(n, per_sample, run_samples);
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  return backprop(grad_out, /*input_grad=*/true);
}

void Conv2d::backward_params(const Tensor& grad_out) {
  backprop(grad_out, /*input_grad=*/false);
}

Tensor Conv2d::backprop(const Tensor& grad_out, bool input_grad) {
  if (cached_input_.empty()) {
    throw std::logic_error(name() + ": backward before training forward");
  }
  HELIOS_TRACE_SPAN("conv2d.backward",
                    {{"out_c", out_channels_}, {"n", cached_input_.dim(0)}});
  const int n = cached_input_.dim(0);
  const int oh = geometry_.out_h(), ow = geometry_.out_w();
  const int plane = oh * ow;
  if (grad_out.shape() != Shape{n, out_channels_, oh, ow}) {
    throw std::invalid_argument(name() + ": bad grad shape " +
                                tensor::shape_to_string(grad_out.shape()));
  }
  const std::size_t in_sample =
      static_cast<std::size_t>(geometry_.in_channels) * geometry_.in_h *
      geometry_.in_w;
  Tensor dx;
  if (input_grad) {
    dx = Tensor({n, geometry_.in_channels, geometry_.in_h, geometry_.in_w});
  }

  auto dcols_scratch = [&] {
    return input_grad ? Tensor({geometry_.patch_size(), plane}) : Tensor();
  };
  // Per-sample body: accumulates this sample's dW/db into `dw`/`db` and,
  // when asked, folds its input gradient into its (disjoint) dx slice.
  auto backward_sample = [&](int i, Tensor& cols, Tensor& dcols, Tensor& gy,
                             Tensor& dw, Tensor& db) {
    const std::size_t at = static_cast<std::size_t>(i) * in_sample;
    tensor::im2col(cached_input_.data() + at, geometry_, cols.data());
    const float* gp = grad_out.data() +
                      static_cast<std::size_t>(i) * out_channels_ * plane;
    std::copy_n(gp, static_cast<std::size_t>(out_channels_) * plane, gy.data());
    // dW += dY * cols^T for active filters; db += row sums of dY.
    tensor::matmul_nt_masked_rows_accumulate(gy, cols, mask_, dw);
    float* dbp = db.data();
    for (int oc = 0; oc < out_channels_; ++oc) {
      if (!mask_.empty() && !mask_[static_cast<std::size_t>(oc)]) continue;
      const float* row = gy.data() + static_cast<std::size_t>(oc) * plane;
      float acc = 0.0F;
      for (int p = 0; p < plane; ++p) acc += row[p];
      dbp[oc] += acc;
    }
    if (!input_grad) return;
    // dcols = W^T dY restricted to active filters, folded back to dx.
    dcols.fill(0.0F);
    tensor::matmul_tn_masked_accumulate(weight_, gy, mask_, dcols);
    tensor::col2im_accumulate(dcols.data(), geometry_, dx.data() + at);
  };

  // The chunked-or-not choice fixes dW's summation order, so it counts the
  // input-gradient work even when that work is skipped.
  const std::int64_t per_sample = 2 * static_cast<std::int64_t>(out_channels_) *
                                  geometry_.patch_size() * plane;
  if (n > 1 && per_sample * n >= tensor::kIntraOpMinWork) {
    // The batch splits into a FIXED number of chunks (independent of the
    // thread count — only of n), each accumulating dW/db into its own
    // partial. The partials are then reduced in chunk order, so the result
    // is the same whether the chunks ran on one thread or eight.
    const int nchunks = std::min(n, 8);
    std::vector<Tensor> dws, dbs;
    dws.reserve(static_cast<std::size_t>(nchunks));
    dbs.reserve(static_cast<std::size_t>(nchunks));
    for (int c = 0; c < nchunks; ++c) {
      dws.emplace_back(
          Tensor::zeros({out_channels_, geometry_.patch_size()}));
      dbs.emplace_back(Tensor::zeros({out_channels_}));
    }
    util::parallel_for(0, nchunks, 1, [&](std::int64_t clo, std::int64_t chi) {
      Tensor cols({geometry_.patch_size(), plane});
      Tensor dcols = dcols_scratch();
      Tensor gy({out_channels_, plane});
      for (std::int64_t c = clo; c < chi; ++c) {
        const int lo = static_cast<int>(n * c / nchunks);
        const int hi = static_cast<int>(n * (c + 1) / nchunks);
        for (int i = lo; i < hi; ++i) {
          backward_sample(i, cols, dcols, gy, dws[static_cast<std::size_t>(c)],
                          dbs[static_cast<std::size_t>(c)]);
        }
      }
    });
    for (int c = 0; c < nchunks; ++c) {
      tensor::add_inplace(dweight_, dws[static_cast<std::size_t>(c)]);
      tensor::add_inplace(dbias_, dbs[static_cast<std::size_t>(c)]);
    }
  } else {
    Tensor cols({geometry_.patch_size(), plane});
    Tensor dcols = dcols_scratch();
    Tensor gy({out_channels_, plane});
    for (int i = 0; i < n; ++i) {
      backward_sample(i, cols, dcols, gy, dweight_, dbias_);
    }
  }
  return dx;
}

void Conv2d::set_mask(std::span<const std::uint8_t> mask) {
  if (!maskable_) {
    throw std::logic_error(name() + ": layer is not maskable");
  }
  check_mask_size(mask, out_channels_, "Conv2d");
  mask_.assign(mask.begin(), mask.end());
}

std::vector<ParamSlice> Conv2d::neuron_slices(int j) const {
  if (j < 0 || j >= out_channels_) {
    throw std::out_of_range("Conv2d::neuron_slices");
  }
  const std::size_t patch = static_cast<std::size_t>(geometry_.patch_size());
  return {
      {0, static_cast<std::size_t>(j) * patch, patch},  // filter j
      {1, static_cast<std::size_t>(j), 1},              // bias j
  };
}

double Conv2d::forward_flops_per_sample() const {
  const int active = mask_.empty() ? out_channels_ : active_count(mask_);
  return static_cast<double>(active) * geometry_.patch_size() *
             geometry_.out_h() * geometry_.out_w() * 2.0 +
         static_cast<double>(active) * geometry_.out_h() * geometry_.out_w();
}

double Conv2d::activation_numel_per_sample() const {
  const int active = mask_.empty() ? out_channels_ : active_count(mask_);
  return static_cast<double>(active) * geometry_.out_h() * geometry_.out_w();
}

}  // namespace helios::nn
