#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "tensor/backend/dispatch.h"

namespace helios::tensor {
namespace {

void require_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
  }
}

void require_2d(const Tensor& t, const char* what) {
  if (t.ndim() != 2) {
    throw std::invalid_argument(std::string(what) + " must be 2-D, got " +
                                shape_to_string(t.shape()));
  }
}

/// Packs the indices of non-zero mask bytes, for backends that stream
/// index lists (KernelTable::use_index_lists) instead of branch-testing
/// the mask in inner loops. Built once per call, shared read-only by every
/// parallel chunk.
std::vector<std::int32_t> pack_active(RowMask mask) {
  std::vector<std::int32_t> out;
  out.reserve(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i] != 0) out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

/// Fills the shared operand block for a matmul wrapper; `inner_mask` says
/// whether the mask gates a non-partitioned loop dimension (only then does
/// a list-streaming backend want the packed indices).
backend::MatmulArgs matmul_args(const Tensor& a, const Tensor& b, Tensor& c,
                                int m, int k, int n, RowMask mask,
                                std::vector<std::int32_t>& active_scratch,
                                bool inner_mask) {
  backend::MatmulArgs args;
  args.a = a.data();
  args.b = b.data();
  args.c = c.data();
  args.m = m;
  args.k = k;
  args.n = n;
  args.mask = mask.empty() ? nullptr : mask.data();
  if (inner_mask && !mask.empty() &&
      backend::active_kernels().use_index_lists) {
    active_scratch = pack_active(mask);
    args.active = active_scratch.data();
    args.n_active = static_cast<std::int32_t>(active_scratch.size());
  }
  return args;
}

}  // namespace

void add_inplace(Tensor& dst, const Tensor& src) {
  require_same_shape(dst, src, "add_inplace");
  float* d = dst.data();
  const float* s = src.data();
  for (std::size_t i = 0; i < dst.numel(); ++i) d[i] += s[i];
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_2d(a, "matmul lhs");
  require_2d(b, "matmul rhs");
  Tensor c({a.dim(0), b.dim(1)});
  matmul_masked_rows_into(a, b, {}, c);
  return c;
}

// The six masked matmul wrappers below share one structure: validate
// shapes, zero/shape the output, build the operand block (plus the packed
// active-index list when the selected backend streams one), then run the
// dispatched kernel over the variant's partition dimension through
// run_chunked — the shared work-estimate + chunking decision. Each backend
// kernel keeps a fixed per-output-element accumulation order, so results
// are bit-identical at any thread count within a backend.

void matmul_masked_rows_into(const Tensor& a, const Tensor& b, RowMask mask,
                             Tensor& c) {
  require_2d(a, "matmul lhs");
  require_2d(b, "matmul rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul: inner dimension mismatch " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  }
  if (!mask.empty() && static_cast<int>(mask.size()) != m) {
    throw std::invalid_argument("matmul: row mask size mismatch");
  }
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  else c.fill(0.0F);

  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/false);
  run_chunked(m, static_cast<std::int64_t>(k) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_rows(args, lo, hi);
              });
}

void matmul_tn_masked_accumulate(const Tensor& a, const Tensor& b,
                                 RowMask mask, Tensor& c) {
  require_2d(a, "matmul_tn lhs");
  require_2d(b, "matmul_tn rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != m) throw std::invalid_argument("matmul_tn: row mismatch");
  if (c.shape() != Shape{k, n}) {
    throw std::invalid_argument("matmul_tn: output must be pre-shaped [k,n]");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/true);
  run_chunked(k, static_cast<std::int64_t>(m) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_tn_acc(args, lo, hi);
              });
}

void matmul_nt_masked_cols_into(const Tensor& a, const Tensor& b, RowMask mask,
                                Tensor& c) {
  require_2d(a, "matmul_nt lhs");
  require_2d(b, "matmul_nt rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) throw std::invalid_argument("matmul_nt: inner mismatch");
  if (!mask.empty() && static_cast<int>(mask.size()) != n) {
    throw std::invalid_argument("matmul_nt: column mask size mismatch");
  }
  if (c.shape() != Shape{m, n}) c = Tensor({m, n});
  else c.fill(0.0F);
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/true);
  run_chunked(m, static_cast<std::int64_t>(k) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_nt_cols(args, lo, hi);
              });
}

void matmul_nn_masked_inner_accumulate(const Tensor& a, const Tensor& b,
                                       RowMask mask, Tensor& c) {
  require_2d(a, "matmul_nn lhs");
  require_2d(b, "matmul_nn rhs");
  const int m = a.dim(0), n = a.dim(1), k = b.dim(1);
  if (b.dim(0) != n) throw std::invalid_argument("matmul_nn: inner mismatch");
  if (c.shape() != Shape{m, k}) {
    throw std::invalid_argument("matmul_nn: output must be pre-shaped [m,k]");
  }
  if (!mask.empty() && static_cast<int>(mask.size()) != n) {
    throw std::invalid_argument("matmul_nn: inner mask size mismatch");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/true);
  run_chunked(m, static_cast<std::int64_t>(n) * k,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_nn_inner_acc(args, lo, hi);
              });
}

void matmul_tn_masked_out_rows_into(const Tensor& a, const Tensor& b,
                                    RowMask mask, Tensor& c) {
  require_2d(a, "matmul_tn_out lhs");
  require_2d(b, "matmul_tn_out rhs");
  const int m = a.dim(0), n = a.dim(1), k = b.dim(1);
  if (b.dim(0) != m) throw std::invalid_argument("matmul_tn_out: row mismatch");
  if (c.shape() != Shape{n, k}) c = Tensor({n, k});
  else c.fill(0.0F);
  if (!mask.empty() && static_cast<int>(mask.size()) != n) {
    throw std::invalid_argument("matmul_tn_out: row mask size mismatch");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/false);
  run_chunked(n, static_cast<std::int64_t>(m) * k,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_tn_out_rows(args, lo, hi);
              });
}

void matmul_nt_masked_rows_accumulate(const Tensor& a, const Tensor& b,
                                      RowMask mask, Tensor& c) {
  require_2d(a, "matmul_nt_rows lhs");
  require_2d(b, "matmul_nt_rows rhs");
  const int m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_nt_rows: inner mismatch");
  }
  if (c.shape() != Shape{m, n}) {
    throw std::invalid_argument("matmul_nt_rows: output must be pre-shaped");
  }
  if (!mask.empty() && static_cast<int>(mask.size()) != m) {
    throw std::invalid_argument("matmul_nt_rows: row mask size mismatch");
  }
  const backend::KernelTable& kt = backend::active_kernels();
  std::vector<std::int32_t> scratch;
  const backend::MatmulArgs args =
      matmul_args(a, b, c, m, k, n, mask, scratch, /*inner_mask=*/false);
  run_chunked(m, static_cast<std::int64_t>(k) * n,
              [&](std::int64_t lo, std::int64_t hi) {
                kt.matmul_nt_rows_acc(args, lo, hi);
              });
}

namespace {

/// Half-open range [lo, hi) of output positions o in [0, out) whose input
/// tap o * stride + offset lands inside [0, extent).
struct TapRange {
  int lo;
  int hi;
};

TapRange valid_taps(int offset, int stride, int extent, int out) {
  // o * stride + offset >= 0       <=>  o >= ceil(-offset / stride)
  // o * stride + offset < extent   <=>  o < ceil((extent - offset) / stride)
  const int lo =
      std::min(out, offset >= 0 ? 0 : (stride - 1 - offset) / stride);
  const int hi =
      extent - offset <= 0 ? 0 : (extent - offset + stride - 1) / stride;
  return {lo, std::clamp(hi, lo, out)};
}

/// Copies n floats between buffers that do not overlap. im2col's rows are
/// often a few floats long (4 on LeNet-16's conv2), where a library call
/// costs more than the copy, so 16-byte pieces are copied inline; the last
/// piece ends at n and may overlap the one before it.
void copy_floats(float* dst, const float* src, int n) {
  if (n < 4) {
    for (int i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  for (int i = 0; i + 4 < n; i += 4) {
    std::memcpy(dst + i, src + i, 4 * sizeof(float));
  }
  std::memcpy(dst + n - 4, src + n - 4, 4 * sizeof(float));
}

}  // namespace

// im2col and col2im share one loop nest, (c, ky, kx) rows, then oy, then
// ox; each (ky, kx) row's valid output window is computed once. im2col
// zero-fills a tap's block whole when its window touches the padding, then
// copies each row's valid span. col2im keeps the reference nest order, so
// every dx element accumulates its terms in the same order as the
// per-element bounds-checked loop it replaced.

void im2col(const float* x, const Conv2dGeometry& g, float* cols) {
  const int oh = g.out_h(), ow = g.out_w(), s = g.stride;
  const std::size_t hw = static_cast<std::size_t>(g.in_h) * g.in_w;
  const std::size_t block = static_cast<std::size_t>(oh) * ow;
  float* crow = cols;
  for (int c = 0; c < g.in_channels; ++c) {
    const float* plane = x + static_cast<std::size_t>(c) * hw;
    for (int ky = 0; ky < g.kernel; ++ky) {
      const TapRange ys = valid_taps(ky - g.pad, s, g.in_h, oh);
      for (int kx = 0; kx < g.kernel; ++kx, crow += block) {
        const TapRange xs = valid_taps(kx - g.pad, s, g.in_w, ow);
        if (ys.lo > 0 || ys.hi < oh || xs.lo > 0 || xs.hi < ow) {
          std::memset(crow, 0, block * sizeof(float));
        }
        const int len = xs.hi - xs.lo;
        if (len == 0 || ys.lo == ys.hi) continue;
        const float* src =
            plane + static_cast<std::size_t>(ys.lo * s + ky - g.pad) * g.in_w +
            (xs.lo * s + kx - g.pad);
        float* dst = crow + static_cast<std::size_t>(ys.lo) * ow + xs.lo;
        const std::size_t src_step = static_cast<std::size_t>(s) * g.in_w;
        for (int oy = ys.lo; oy < ys.hi; ++oy, src += src_step, dst += ow) {
          if (s == 1) {
            copy_floats(dst, src, len);
          } else {
            for (int o = 0; o < len; ++o) dst[o] = src[o * s];
          }
        }
      }
    }
  }
}

void col2im_accumulate(const float* cols, const Conv2dGeometry& g,
                       float* dx) {
  const int oh = g.out_h(), ow = g.out_w(), s = g.stride;
  const std::size_t hw = static_cast<std::size_t>(g.in_h) * g.in_w;
  const float* crow = cols;
  for (int c = 0; c < g.in_channels; ++c) {
    float* plane = dx + static_cast<std::size_t>(c) * hw;
    for (int ky = 0; ky < g.kernel; ++ky) {
      const TapRange ys = valid_taps(ky - g.pad, s, g.in_h, oh);
      for (int kx = 0; kx < g.kernel; ++kx) {
        const TapRange xs = valid_taps(kx - g.pad, s, g.in_w, ow);
        const int off = kx - g.pad;
        for (int oy = ys.lo; oy < ys.hi; ++oy) {
          const float* src = crow + static_cast<std::size_t>(oy) * ow;
          float* row =
              plane + static_cast<std::size_t>(oy * s + ky - g.pad) * g.in_w;
          if (s == 1) {
            for (int ox = xs.lo; ox < xs.hi; ++ox) row[ox + off] += src[ox];
          } else {
            for (int ox = xs.lo; ox < xs.hi; ++ox) row[ox * s + off] += src[ox];
          }
        }
        crow += static_cast<std::size_t>(oh) * ow;
      }
    }
  }
}

void row_softmax(const Tensor& logits, Tensor& probs) {
  if (logits.ndim() != 2) throw std::invalid_argument("row_softmax: 2-D only");
  if (probs.shape() != logits.shape()) probs = Tensor(logits.shape());
  const int n = logits.dim(0), c = logits.dim(1);
  const float* lp = logits.data();
  float* pp = probs.data();
  for (int i = 0; i < n; ++i) {
    const float* row = lp + static_cast<std::size_t>(i) * c;
    float* out = pp + static_cast<std::size_t>(i) * c;
    float mx = row[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, row[j]);
    float denom = 0.0F;
    for (int j = 0; j < c; ++j) {
      out[j] = std::exp(row[j] - mx);
      denom += out[j];
    }
    const float inv = 1.0F / denom;
    for (int j = 0; j < c; ++j) out[j] *= inv;
  }
}

double softmax_cross_entropy(const Tensor& logits,
                             std::span<const int> labels, Tensor& grad) {
  if (logits.ndim() != 2) {
    throw std::invalid_argument("softmax_cross_entropy: 2-D logits only");
  }
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<int>(labels.size()) != n) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  row_softmax(logits, grad);
  double loss = 0.0;
  float* gp = grad.data();
  const float inv_n = 1.0F / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    const int y = labels[static_cast<std::size_t>(i)];
    if (y < 0 || y >= c) {
      throw std::out_of_range("softmax_cross_entropy: label out of range");
    }
    float* row = gp + static_cast<std::size_t>(i) * c;
    loss -= std::log(std::max(row[y], 1e-12F));
    row[y] -= 1.0F;
    for (int j = 0; j < c; ++j) row[j] *= inv_n;
  }
  return loss / n;
}

int count_correct(const Tensor& logits, std::span<const int> labels) {
  if (logits.ndim() != 2) {
    throw std::invalid_argument("count_correct: 2-D logits only");
  }
  const int n = logits.dim(0), c = logits.dim(1);
  if (static_cast<int>(labels.size()) != n) {
    throw std::invalid_argument("count_correct: label count mismatch");
  }
  const float* lp = logits.data();
  int correct = 0;
  for (int i = 0; i < n; ++i) {
    const float* row = lp + static_cast<std::size_t>(i) * c;
    int best = 0;
    for (int j = 1; j < c; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return correct;
}

}  // namespace helios::tensor
