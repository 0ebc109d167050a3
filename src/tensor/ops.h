// Free-function math kernels on Tensor.
//
// The masked matmul variants are the computational heart of soft-training:
// a row mask over the weight matrix corresponds to a neuron (dense unit or
// conv filter) being excluded from the current training cycle, and masked
// rows are genuinely skipped, so the straggler's shrunk model costs
// proportionally fewer FLOPs — the same accounting the virtual-time device
// model uses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace helios::tensor {

/// Per-row activity mask; empty span means "all rows active".
using RowMask = std::span<const std::uint8_t>;

// Intra-op parallelism gates, shared by the matmul kernels and conv2d: a
// kernel engages the thread pool only when its multiply-accumulate count
// crosses kIntraOpMinWork (tiny LeNet shapes stay inline), and static
// chunks are sized to carry at least kIntraOpChunkWork each. Parallel
// variants partition output elements only, so results are bit-identical to
// the sequential loops at any thread count.
inline constexpr std::int64_t kIntraOpMinWork = std::int64_t{1} << 20;
inline constexpr std::int64_t kIntraOpChunkWork = std::int64_t{1} << 18;

/// The one intra-op work-estimate + chunking decision, shared by every
/// matmul wrapper, conv2d's batch split, and — because the wrappers call
/// the dispatched backend kernel per chunk — inherited unchanged by every
/// kernel backend. Runs `chunk(lo, hi)` over contiguous sub-ranges covering
/// [0, extent) exactly once: through the thread pool when the total
/// multiply-accumulate count `extent * per_item_work` crosses
/// kIntraOpMinWork (chunks sized to carry ~kIntraOpChunkWork each), inline
/// as chunk(0, extent) otherwise — including from inside an enclosing
/// parallel region, where the full-range call keeps the sequential loop
/// structure of kernels with a transposed parallel traversal.
template <typename Chunk>
void run_chunked(std::int64_t extent, std::int64_t per_item_work,
                 Chunk&& chunk) {
  per_item_work = std::max<std::int64_t>(1, per_item_work);
  if (extent * per_item_work >= kIntraOpMinWork &&
      util::global_thread_count() > 1 &&
      !util::detail::in_parallel_region()) {
    const std::int64_t grain =
        std::max<std::int64_t>(1, kIntraOpChunkWork / per_item_work);
    util::parallel_for(0, extent, grain, chunk);
  } else if (extent > 0) {
    chunk(0, extent);
  }
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

/// dst += src (shapes must match).
void add_inplace(Tensor& dst, const Tensor& src);

// ---------------------------------------------------------------------------
// Matrix multiplication (2-D only; C is resized/zeroed by the _into forms)
// ---------------------------------------------------------------------------

/// C = A[m,k] * B[k,n].
Tensor matmul(const Tensor& a, const Tensor& b);

/// C[m,n] = A[m,k] * B[k,n]; rows of C whose mask byte is 0 are left as zero
/// and their dot products are skipped entirely.
void matmul_masked_rows_into(const Tensor& a, const Tensor& b, RowMask mask,
                             Tensor& c);

/// C[k,n] += A^T[k,m] * B[m,n], restricted to active rows m of A and B.
/// Used for dL/dx = W^T dY with inactive neurons removed.
void matmul_tn_masked_accumulate(const Tensor& a, const Tensor& b,
                                 RowMask mask, Tensor& c);

/// C[m,n] = A[m,k] * B^T[n,k] — i.e. rows of A dotted with rows of B.
/// Column mask (over n) skips inactive output units. Used for dense forward
/// with x[m,k] and W[n,k].
void matmul_nt_masked_cols_into(const Tensor& a, const Tensor& b, RowMask mask,
                                Tensor& c);

/// C[m,k] += A[m,n] * B[n,k], restricted to active n. Used for dense
/// backward-to-input with dY[m,n], W[n,k].
void matmul_nn_masked_inner_accumulate(const Tensor& a, const Tensor& b,
                                       RowMask mask, Tensor& c);

/// C[n,k] = A^T[n,m] * B[m,k] with row mask over n: dW = dY^T x for dense.
void matmul_tn_masked_out_rows_into(const Tensor& a, const Tensor& b,
                                    RowMask mask, Tensor& c);

/// C[m,n] += A[m,k] * B^T[n,k], restricted to active rows m of A and C.
/// Used for conv weight gradients: dW += dY * cols^T with filter mask.
void matmul_nt_masked_rows_accumulate(const Tensor& a, const Tensor& b,
                                      RowMask mask, Tensor& c);

// ---------------------------------------------------------------------------
// Convolution support (NCHW, per-sample im2col)
// ---------------------------------------------------------------------------

struct Conv2dGeometry {
  int in_channels = 0;
  int in_h = 0;
  int in_w = 0;
  int kernel = 0;  // square kernels
  int stride = 1;
  int pad = 0;

  int out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  int out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  int patch_size() const { return in_channels * kernel * kernel; }
};

/// Unfolds one contiguous sample `x[C,H,W]` into the contiguous
/// `cols[patch_size, out_h*out_w]`; zero padding is written explicitly.
void im2col(const float* x, const Conv2dGeometry& g, float* cols);

/// Folds `cols[patch_size, out_h*out_w]` back into the contiguous sample
/// `dx[C,H,W]`, adding onto what `dx` holds.
void col2im_accumulate(const float* cols, const Conv2dGeometry& g, float* dx);

// ---------------------------------------------------------------------------
// Classification head
// ---------------------------------------------------------------------------

/// Row-wise softmax of logits[n, c] into probs (resized to match).
void row_softmax(const Tensor& logits, Tensor& probs);

/// Mean cross-entropy over the batch; fills `grad` with dL/dlogits
/// ( (softmax - onehot) / n ). `labels` are class indices of length n.
double softmax_cross_entropy(const Tensor& logits,
                             std::span<const int> labels, Tensor& grad);

/// Number of rows whose argmax equals the label.
int count_correct(const Tensor& logits, std::span<const int> labels);

}  // namespace helios::tensor
