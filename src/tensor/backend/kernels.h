// Kernel table for the runtime-dispatched SIMD backend.
//
// Every hot kernel in the soft-training path is expressed as a C function
// pointer operating on raw pointers plus a *partition range* [lo, hi) over
// one documented output dimension. The wrapper in tensor/ops.cpp owns shape
// checking and the thread-pool split (tensor/ops.h, run_chunked) and calls
// the same kernel entry for the sequential full range and for every
// parallel chunk — so each backend inherits the identical parallel-split
// behaviour, and results are bit-identical at any thread count *within* a
// backend (per-output-element accumulation order never depends on chunk
// boundaries).
//
// Cross-backend contract (verified by tests/checkasm_kernels.cpp):
//   * mask handling and anything integer-indexed is exact: masked-out
//     outputs are bitwise identical across backends,
//   * the SGD update kernel is elementwise with no FMA, so the
//     AVX2 path is bitwise identical to scalar,
//   * the matmul kernels use FMA on the AVX2 path, which changes rounding;
//     they carry the documented ULP-style tolerance (kFmaUlpTol) relative
//     to the scalar reference, weighted by the running |a|.|b| sum.
//
// Adding a backend: implement the entries below in a new TU (compiled with
// whatever -m flags it needs), expose a `const KernelTable& foo_kernels()`,
// and register it in dispatch.cpp. checkasm picks it up automatically via
// available_tables().
#pragma once

#include <cstddef>
#include <cstdint>

namespace helios::tensor::backend {

/// Weight on the per-element |a|.|b| accumulation sum that bounds the
/// allowed AVX2-vs-scalar divergence of the FMA matmul kernels:
///   |avx2 - scalar| <= kFmaUlpTol * eps * sum_kk |a_kk * b_kk| + eps.
/// Pinned by checkasm's tolerance test; raise only with a DESIGN.md note.
inline constexpr float kFmaUlpTol = 32.0F;

/// Shared operand block for the six masked matmul variants. `mask` is over
/// the dimension each variant documents (nullptr = all active). `active`
/// is the ascending index list of non-zero mask positions, precomputed
/// once per call by the ops.cpp wrapper when the selected table sets
/// `use_index_lists` (scalar keeps the legacy branch-per-row loops and
/// never sees it).
struct MatmulArgs {
  const float* a = nullptr;
  const float* b = nullptr;
  float* c = nullptr;
  int m = 0;
  int k = 0;
  int n = 0;
  const std::uint8_t* mask = nullptr;
  const std::int32_t* active = nullptr;
  std::int32_t n_active = -1;
};

/// Partition dimension per variant (the [lo, hi) range in the call):
///   matmul_rows           C[m,n]  = A[m,k] B[k,n], mask over m — rows i
///   matmul_tn_acc         C[k,n] += A^T B, mask over m         — rows kk
///   matmul_nt_cols        C[m,n]  = A B^T, mask over n         — rows i
///   matmul_nn_inner_acc   C[m,k] += A B,   mask over inner n   — rows i
///   matmul_tn_out_rows    C[n,k]  = A^T B, mask over n         — rows j
///   matmul_nt_rows_acc    C[m,n] += A B^T, mask over m         — rows i
using MatmulKernelFn = void (*)(const MatmulArgs&, std::int64_t lo,
                                std::int64_t hi);

/// One SGD step over a contiguous parameter slice. `v` is the momentum
/// buffer (nullptr = plain SGD), `frozen` marks elements to leave untouched
/// (nullptr = none). Semantics mirror nn::Sgd::step exactly:
///   grad = g[i] * clip_scale + weight_decay * w[i]
///   v[i] = momentum * v[i] + grad   (when v)
///   w[i] -= lr * (v ? v[i] : grad)
struct SgdArgs {
  float* w = nullptr;
  const float* g = nullptr;
  float* v = nullptr;
  const std::uint8_t* frozen = nullptr;
  std::size_t count = 0;
  float lr = 0.0F;
  float momentum = 0.0F;
  float weight_decay = 0.0F;
  float clip_scale = 1.0F;
};
using SgdKernelFn = void (*)(const SgdArgs&);

enum class Backend : std::uint8_t { kScalar = 0, kAvx2 = 1 };

struct KernelTable {
  const char* name = "";
  Backend id = Backend::kScalar;
  /// True when the matmul kernels want the precomputed active-index list
  /// in MatmulArgs (the AVX2 paths stream packed index lists instead of
  /// branch-testing the mask in inner loops).
  bool use_index_lists = false;

  MatmulKernelFn matmul_rows = nullptr;
  MatmulKernelFn matmul_tn_acc = nullptr;
  MatmulKernelFn matmul_nt_cols = nullptr;
  MatmulKernelFn matmul_nn_inner_acc = nullptr;
  MatmulKernelFn matmul_tn_out_rows = nullptr;
  MatmulKernelFn matmul_nt_rows_acc = nullptr;
  SgdKernelFn sgd_update = nullptr;
};

/// The portable reference table (always available; the correctness oracle).
const KernelTable& scalar_kernels();

#if defined(HELIOS_HAVE_AVX2)
/// The AVX2+FMA table (TU compiled with -mavx2 -mfma -ffp-contract=off;
/// only dispatched to when util::cpu_has_avx2_fma()).
const KernelTable& avx2_kernels();
#endif

}  // namespace helios::tensor::backend
