// Portable reference kernels — the exact loops that lived in tensor/ops.cpp
// before the backend split, including the unmasked fast paths and the
// zero-skip branches that pay off on soft-training's masked rows. This TU
// is compiled with the project's default flags only, so a forced
// HELIOS_KERNEL_BACKEND=scalar run reproduces pre-dispatch results
// bit-exactly.
//
// The variants that historically used a different traversal for their
// sequential and parallel forms (tn_acc: i-outer vs kk-outer; tn_out_rows:
// i-outer vs j-outer) keep both: the full-range call takes the sequential
// traversal, partial ranges take the chunk-owner traversal. Both orders
// accumulate every output element over the same ascending index sequence,
// so the results are bit-identical — only the memory walk differs.
#include "tensor/backend/kernels.h"

namespace helios::tensor::backend {
namespace {

inline bool row_active(const std::uint8_t* mask, std::int64_t row) {
  return mask == nullptr || mask[row] != 0;
}

// C[m,n] = A[m,k] B[k,n], mask over rows of C; partition over i.
void s_matmul_rows(const MatmulArgs& t, std::int64_t lo, std::int64_t hi) {
  const int k = t.k, n = t.n;
  if (t.mask == nullptr) {
    // Unmasked fast path: no row gating and no zero-skip branch (the skip
    // only pays off for soft-training's masked rows; on dense inputs it
    // defeats vectorization).
    for (std::int64_t i = lo; i < hi; ++i) {
      const float* arow = t.a + static_cast<std::size_t>(i) * k;
      float* crow = t.c + static_cast<std::size_t>(i) * n;
      for (int kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        const float* brow = t.b + static_cast<std::size_t>(kk) * n;
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    return;
  }
  for (std::int64_t i = lo; i < hi; ++i) {
    if (!row_active(t.mask, i)) continue;
    const float* arow = t.a + static_cast<std::size_t>(i) * k;
    float* crow = t.c + static_cast<std::size_t>(i) * n;
    for (int kk = 0; kk < k; ++kk) {
      const float aik = arow[kk];
      if (aik == 0.0F) continue;
      const float* brow = t.b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

// C[k,n] += A^T[k,m] B[m,n] over active rows m; partition over kk.
void s_matmul_tn_acc(const MatmulArgs& t, std::int64_t lo, std::int64_t hi) {
  const int m = t.m, k = t.k, n = t.n;
  if (lo == 0 && hi == k) {
    // Full range: the historical sequential i-outer walk (streams A and B
    // rows contiguously).
    if (t.mask == nullptr) {
      for (int i = 0; i < m; ++i) {
        const float* arow = t.a + static_cast<std::size_t>(i) * k;
        const float* brow = t.b + static_cast<std::size_t>(i) * n;
        for (int kk = 0; kk < k; ++kk) {
          const float aik = arow[kk];
          float* crow = t.c + static_cast<std::size_t>(kk) * n;
          for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
        }
      }
      return;
    }
    for (int i = 0; i < m; ++i) {
      if (!row_active(t.mask, i)) continue;
      const float* arow = t.a + static_cast<std::size_t>(i) * k;
      const float* brow = t.b + static_cast<std::size_t>(i) * n;
      for (int kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        if (aik == 0.0F) continue;
        float* crow = t.c + static_cast<std::size_t>(kk) * n;
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    return;
  }
  // Partial range: kk-outer — each output row of C owned by one chunk, i
  // ascending, the same per-element accumulation order as above.
  if (t.mask == nullptr) {
    for (std::int64_t kk = lo; kk < hi; ++kk) {
      float* crow = t.c + static_cast<std::size_t>(kk) * n;
      for (int i = 0; i < m; ++i) {
        const float aik = t.a[static_cast<std::size_t>(i) * k +
                              static_cast<std::size_t>(kk)];
        const float* brow = t.b + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
    return;
  }
  for (std::int64_t kk = lo; kk < hi; ++kk) {
    float* crow = t.c + static_cast<std::size_t>(kk) * n;
    for (int i = 0; i < m; ++i) {
      if (!row_active(t.mask, i)) continue;
      const float aik = t.a[static_cast<std::size_t>(i) * k +
                            static_cast<std::size_t>(kk)];
      if (aik == 0.0F) continue;
      const float* brow = t.b + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

// C[m,n] = A[m,k] B^T[n,k], column mask over n; partition over i.
void s_matmul_nt_cols(const MatmulArgs& t, std::int64_t lo, std::int64_t hi) {
  const int k = t.k, n = t.n;
  for (std::int64_t i = lo; i < hi; ++i) {
    const float* arow = t.a + static_cast<std::size_t>(i) * k;
    float* crow = t.c + static_cast<std::size_t>(i) * n;
    if (t.mask == nullptr) {
      for (int j = 0; j < n; ++j) {
        const float* brow = t.b + static_cast<std::size_t>(j) * k;
        float acc = 0.0F;
        for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] = acc;
      }
      continue;
    }
    for (int j = 0; j < n; ++j) {
      if (!row_active(t.mask, j)) continue;  // output unit j skipped
      const float* brow = t.b + static_cast<std::size_t>(j) * k;
      float acc = 0.0F;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
}

// C[m,k] += A[m,n] B[n,k] restricted to active inner n; partition over i.
void s_matmul_nn_inner_acc(const MatmulArgs& t, std::int64_t lo,
                           std::int64_t hi) {
  const int n = t.n, k = t.k;
  for (std::int64_t i = lo; i < hi; ++i) {
    const float* arow = t.a + static_cast<std::size_t>(i) * n;
    float* crow = t.c + static_cast<std::size_t>(i) * k;
    for (int j = 0; j < n; ++j) {
      if (!row_active(t.mask, j)) continue;
      const float aij = arow[j];
      if (aij == 0.0F) continue;
      const float* brow = t.b + static_cast<std::size_t>(j) * k;
      for (int kk = 0; kk < k; ++kk) crow[kk] += aij * brow[kk];
    }
  }
}

// C[n,k] = A^T[n,m] B[m,k] with row mask over n; partition over j.
void s_matmul_tn_out_rows(const MatmulArgs& t, std::int64_t lo,
                          std::int64_t hi) {
  const int m = t.m, n = t.n, k = t.k;
  if (lo == 0 && hi == n) {
    // Full range: the historical sequential i-outer walk.
    for (int i = 0; i < m; ++i) {
      const float* arow = t.a + static_cast<std::size_t>(i) * n;
      const float* brow = t.b + static_cast<std::size_t>(i) * k;
      for (int j = 0; j < n; ++j) {
        if (!row_active(t.mask, j)) continue;
        const float aij = arow[j];
        if (aij == 0.0F) continue;
        float* crow = t.c + static_cast<std::size_t>(j) * k;
        for (int kk = 0; kk < k; ++kk) crow[kk] += aij * brow[kk];
      }
    }
    return;
  }
  // Partial range: j-outer — each output row owned by one chunk, i
  // ascending as in the full-range walk — bit-identical accumulation.
  for (std::int64_t j = lo; j < hi; ++j) {
    if (!row_active(t.mask, j)) continue;
    float* crow = t.c + static_cast<std::size_t>(j) * k;
    for (int i = 0; i < m; ++i) {
      const float aij = t.a[static_cast<std::size_t>(i) * n +
                            static_cast<std::size_t>(j)];
      if (aij == 0.0F) continue;
      const float* brow = t.b + static_cast<std::size_t>(i) * k;
      for (int kk = 0; kk < k; ++kk) crow[kk] += aij * brow[kk];
    }
  }
}

// C[m,n] += A[m,k] B^T[n,k] over active rows m; partition over i.
void s_matmul_nt_rows_acc(const MatmulArgs& t, std::int64_t lo,
                          std::int64_t hi) {
  const int k = t.k, n = t.n;
  for (std::int64_t i = lo; i < hi; ++i) {
    if (!row_active(t.mask, i)) continue;
    const float* arow = t.a + static_cast<std::size_t>(i) * k;
    float* crow = t.c + static_cast<std::size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      const float* brow = t.b + static_cast<std::size_t>(j) * k;
      float acc = 0.0F;
      for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] += acc;
    }
  }
}

void s_sgd_update(const SgdArgs& t) {
  const bool use_momentum = t.v != nullptr;
  for (std::size_t i = 0; i < t.count; ++i) {
    if (t.frozen && t.frozen[i]) continue;
    float grad = t.g[i] * t.clip_scale + t.weight_decay * t.w[i];
    if (use_momentum) {
      t.v[i] = t.momentum * t.v[i] + grad;
      grad = t.v[i];
    }
    t.w[i] -= t.lr * grad;
  }
}

}  // namespace

const KernelTable& scalar_kernels() {
  static const KernelTable table = {
      /*name=*/"scalar",
      /*id=*/Backend::kScalar,
      /*use_index_lists=*/false,
      /*matmul_rows=*/s_matmul_rows,
      /*matmul_tn_acc=*/s_matmul_tn_acc,
      /*matmul_nt_cols=*/s_matmul_nt_cols,
      /*matmul_nn_inner_acc=*/s_matmul_nn_inner_acc,
      /*matmul_tn_out_rows=*/s_matmul_tn_out_rows,
      /*matmul_nt_rows_acc=*/s_matmul_nt_rows_acc,
      /*sgd_update=*/s_sgd_update,
  };
  return table;
}

}  // namespace helios::tensor::backend
