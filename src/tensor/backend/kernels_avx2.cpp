// AVX2+FMA kernels. This TU is the only one compiled with
// -mavx2 -mfma (plus -ffp-contract=off so the compiler cannot fuse the
// SGD kernel's separate mul/add intrinsics into FMAs behind our back);
// dispatch.cpp only routes here after util::cpu_has_avx2_fma().
//
// Numerics:
//   * The matmul kernels use explicit _mm256_fmadd_ps. FMA skips the
//     intermediate rounding of mul-then-add, so outputs differ from the
//     scalar reference within the kFmaUlpTol weighted tolerance
//     (tensor/backend/kernels.h); per-output-element accumulation order is
//     fixed (ascending k / i), so results are bit-identical at any thread
//     count and any chunk split.
//   * The SGD kernel uses only mul/add/sub in the scalar reference's exact
//     operation order — all are correctly rounded under IEEE-754, so this
//     path is bitwise identical to scalar (checkasm pins this).
//   * Mask logic is integer-exact: masked-out rows are never touched, and
//     frozen SGD lanes are restored by blend, so those bytes are
//     bitwise identical to scalar.
//
// Masked variants stream the packed active-index lists precomputed by the
// ops.cpp wrapper (use_index_lists = true) instead of branch-testing the
// mask byte in inner loops.
#include "tensor/backend/kernels.h"

#if defined(HELIOS_HAVE_AVX2)

#include <immintrin.h>

namespace helios::tensor::backend {
namespace {

// K-dimension block for the cache-blocked C = A B microkernel: 256 rows of
// a 16-wide B panel is 16 KB, comfortably inside L1 alongside the A row.
constexpr int kKcBlock = 256;

// Lane masks for 0..7-element tails, usable by maskload/maskstore.
inline __m256i tail_mask(int r) {
  alignas(32) static const std::int32_t lut[16] = {
      -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(lut + (8 - r)));
}

// ---------------------------------------------------------------------------
// C[m,n] = A[m,k] B[k,n], row mask over m; partition over i.
//
// Per active output row: cache-blocked over k, register-tiled 1x16 over j.
// The C tile stays in two ymm accumulators for a whole k-block, so B is the
// only streamed operand. Accumulation over kk is ascending across and
// within blocks — the per-element order the determinism contract needs.
// ---------------------------------------------------------------------------
void row_times_panel(const float* arow, const float* b, float* crow, int k,
                     int n) {
  for (int k0 = 0; k0 < k; k0 += kKcBlock) {
    const int k1 = k0 + kKcBlock < k ? k0 + kKcBlock : k;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc0 = _mm256_loadu_ps(crow + j);
      __m256 acc1 = _mm256_loadu_ps(crow + j + 8);
      for (int kk = k0; kk < k1; ++kk) {
        const __m256 aik = _mm256_set1_ps(arow[kk]);
        const float* brow = b + static_cast<std::size_t>(kk) * n + j;
        acc0 = _mm256_fmadd_ps(aik, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(aik, _mm256_loadu_ps(brow + 8), acc1);
      }
      _mm256_storeu_ps(crow + j, acc0);
      _mm256_storeu_ps(crow + j + 8, acc1);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (int kk = k0; kk < k1; ++kk) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(arow[kk]),
            _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * n + j), acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    if (j < n) {
      const __m256i tm = tail_mask(n - j);
      __m256 acc = _mm256_maskload_ps(crow + j, tm);
      for (int kk = k0; kk < k1; ++kk) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(arow[kk]),
            _mm256_maskload_ps(b + static_cast<std::size_t>(kk) * n + j, tm),
            acc);
      }
      _mm256_maskstore_ps(crow + j, tm, acc);
    }
  }
}

// Four rows x 16 columns: eight independent accumulator chains hide the
// 4-5 cycle FMA latency a one-row tile is bound by, and every B-row load
// pair is amortized over four A rows. Per output element the kk sequence
// (ascending within ascending k-blocks) is identical to row_times_panel,
// so the two tiles are bitwise interchangeable per row.
void rows4_panel(const float* a0, const float* a1, const float* a2,
                 const float* a3, const float* b, float* c0, float* c1,
                 float* c2, float* c3, int k, int n) {
  for (int k0 = 0; k0 < k; k0 += kKcBlock) {
    const int k1 = k0 + kKcBlock < k ? k0 + kKcBlock : k;
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      __m256 acc00 = _mm256_loadu_ps(c0 + j);
      __m256 acc01 = _mm256_loadu_ps(c0 + j + 8);
      __m256 acc10 = _mm256_loadu_ps(c1 + j);
      __m256 acc11 = _mm256_loadu_ps(c1 + j + 8);
      __m256 acc20 = _mm256_loadu_ps(c2 + j);
      __m256 acc21 = _mm256_loadu_ps(c2 + j + 8);
      __m256 acc30 = _mm256_loadu_ps(c3 + j);
      __m256 acc31 = _mm256_loadu_ps(c3 + j + 8);
      for (int kk = k0; kk < k1; ++kk) {
        const float* brow = b + static_cast<std::size_t>(kk) * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        __m256 av = _mm256_set1_ps(a0[kk]);
        acc00 = _mm256_fmadd_ps(av, b0, acc00);
        acc01 = _mm256_fmadd_ps(av, b1, acc01);
        av = _mm256_set1_ps(a1[kk]);
        acc10 = _mm256_fmadd_ps(av, b0, acc10);
        acc11 = _mm256_fmadd_ps(av, b1, acc11);
        av = _mm256_set1_ps(a2[kk]);
        acc20 = _mm256_fmadd_ps(av, b0, acc20);
        acc21 = _mm256_fmadd_ps(av, b1, acc21);
        av = _mm256_set1_ps(a3[kk]);
        acc30 = _mm256_fmadd_ps(av, b0, acc30);
        acc31 = _mm256_fmadd_ps(av, b1, acc31);
      }
      _mm256_storeu_ps(c0 + j, acc00);
      _mm256_storeu_ps(c0 + j + 8, acc01);
      _mm256_storeu_ps(c1 + j, acc10);
      _mm256_storeu_ps(c1 + j + 8, acc11);
      _mm256_storeu_ps(c2 + j, acc20);
      _mm256_storeu_ps(c2 + j + 8, acc21);
      _mm256_storeu_ps(c3 + j, acc30);
      _mm256_storeu_ps(c3 + j + 8, acc31);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(c0 + j);
      __m256 acc1 = _mm256_loadu_ps(c1 + j);
      __m256 acc2 = _mm256_loadu_ps(c2 + j);
      __m256 acc3 = _mm256_loadu_ps(c3 + j);
      for (int kk = k0; kk < k1; ++kk) {
        const __m256 bv =
            _mm256_loadu_ps(b + static_cast<std::size_t>(kk) * n + j);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[kk]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[kk]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[kk]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[kk]), bv, acc3);
      }
      _mm256_storeu_ps(c0 + j, acc0);
      _mm256_storeu_ps(c1 + j, acc1);
      _mm256_storeu_ps(c2 + j, acc2);
      _mm256_storeu_ps(c3 + j, acc3);
    }
    if (j < n) {
      const __m256i tm = tail_mask(n - j);
      __m256 acc0 = _mm256_maskload_ps(c0 + j, tm);
      __m256 acc1 = _mm256_maskload_ps(c1 + j, tm);
      __m256 acc2 = _mm256_maskload_ps(c2 + j, tm);
      __m256 acc3 = _mm256_maskload_ps(c3 + j, tm);
      for (int kk = k0; kk < k1; ++kk) {
        const __m256 bv =
            _mm256_maskload_ps(b + static_cast<std::size_t>(kk) * n + j, tm);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(a0[kk]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(a1[kk]), bv, acc1);
        acc2 = _mm256_fmadd_ps(_mm256_set1_ps(a2[kk]), bv, acc2);
        acc3 = _mm256_fmadd_ps(_mm256_set1_ps(a3[kk]), bv, acc3);
      }
      _mm256_maskstore_ps(c0 + j, tm, acc0);
      _mm256_maskstore_ps(c1 + j, tm, acc1);
      _mm256_maskstore_ps(c2 + j, tm, acc2);
      _mm256_maskstore_ps(c3 + j, tm, acc3);
    }
  }
}

void v_matmul_rows(const MatmulArgs& t, std::int64_t lo, std::int64_t hi) {
  // Gather active rows into quads (rows need not be adjacent); leftovers
  // take the one-row tile, which is bitwise identical per row.
  const float* ar[4];
  float* cr[4];
  int nr = 0;
  for (std::int64_t i = lo; i < hi; ++i) {
    if (t.mask != nullptr && t.mask[i] == 0) continue;
    ar[nr] = t.a + static_cast<std::size_t>(i) * t.k;
    cr[nr] = t.c + static_cast<std::size_t>(i) * t.n;
    if (++nr == 4) {
      rows4_panel(ar[0], ar[1], ar[2], ar[3], t.b, cr[0], cr[1], cr[2],
                  cr[3], t.k, t.n);
      nr = 0;
    }
  }
  for (int r = 0; r < nr; ++r) {
    row_times_panel(ar[r], t.b, cr[r], t.k, t.n);
  }
}

// ---------------------------------------------------------------------------
// C[k,n] += A^T[k,m] B[m,n] over active rows i; partition over kk.
//
// Output rows are processed in pairs sharing every B-row load (halves the
// streamed traffic); per element the i loop is ascending, matching scalar.
// ---------------------------------------------------------------------------
void tn_acc_one(const MatmulArgs& t, std::int64_t kk) {
  const int n = t.n;
  float* crow = t.c + static_cast<std::size_t>(kk) * n;
  // n_active >= 0 is the "index list provided" discriminator: an all-masked
  // call carries a length-0 list whose data() is null, so the pointer alone
  // cannot distinguish "no list" from "nothing active".
  const bool use_list = t.n_active >= 0;
  const std::int64_t cnt = use_list ? t.n_active : t.m;
  int j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 acc = _mm256_loadu_ps(crow + j);
    for (std::int64_t idx = 0; idx < cnt; ++idx) {
      const std::int64_t i = use_list ? t.active[idx] : idx;
      acc = _mm256_fmadd_ps(
          _mm256_set1_ps(t.a[static_cast<std::size_t>(i) * t.k +
                             static_cast<std::size_t>(kk)]),
          _mm256_loadu_ps(t.b + static_cast<std::size_t>(i) * n + j), acc);
    }
    _mm256_storeu_ps(crow + j, acc);
  }
  if (j < n) {
    const __m256i tm = tail_mask(n - j);
    __m256 acc = _mm256_maskload_ps(crow + j, tm);
    for (std::int64_t idx = 0; idx < cnt; ++idx) {
      const std::int64_t i = use_list ? t.active[idx] : idx;
      acc = _mm256_fmadd_ps(
          _mm256_set1_ps(t.a[static_cast<std::size_t>(i) * t.k +
                             static_cast<std::size_t>(kk)]),
          _mm256_maskload_ps(t.b + static_cast<std::size_t>(i) * n + j, tm),
          acc);
    }
    _mm256_maskstore_ps(crow + j, tm, acc);
  }
}

void v_matmul_tn_acc(const MatmulArgs& t, std::int64_t lo, std::int64_t hi) {
  const int n = t.n;
  const bool use_list = t.n_active >= 0;
  const std::int64_t cnt = use_list ? t.n_active : t.m;
  std::int64_t kk = lo;
  for (; kk + 2 <= hi; kk += 2) {
    float* crow0 = t.c + static_cast<std::size_t>(kk) * n;
    float* crow1 = crow0 + n;
    int j = 0;
    // 2 kk x 32 j: eight independent accumulator chains hide FMA latency;
    // per lane the i sequence is identical to the 8-wide loop below, so
    // widths are bitwise interchangeable.
    for (; j + 32 <= n; j += 32) {
      __m256 acc00 = _mm256_loadu_ps(crow0 + j);
      __m256 acc01 = _mm256_loadu_ps(crow0 + j + 8);
      __m256 acc02 = _mm256_loadu_ps(crow0 + j + 16);
      __m256 acc03 = _mm256_loadu_ps(crow0 + j + 24);
      __m256 acc10 = _mm256_loadu_ps(crow1 + j);
      __m256 acc11 = _mm256_loadu_ps(crow1 + j + 8);
      __m256 acc12 = _mm256_loadu_ps(crow1 + j + 16);
      __m256 acc13 = _mm256_loadu_ps(crow1 + j + 24);
      for (std::int64_t idx = 0; idx < cnt; ++idx) {
        const std::int64_t i = use_list ? t.active[idx] : idx;
        const float* apos = t.a + static_cast<std::size_t>(i) * t.k +
                            static_cast<std::size_t>(kk);
        const float* brow = t.b + static_cast<std::size_t>(i) * n + j;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        const __m256 b3 = _mm256_loadu_ps(brow + 24);
        const __m256 a0 = _mm256_set1_ps(apos[0]);
        const __m256 a1 = _mm256_set1_ps(apos[1]);
        acc00 = _mm256_fmadd_ps(a0, b0, acc00);
        acc01 = _mm256_fmadd_ps(a0, b1, acc01);
        acc02 = _mm256_fmadd_ps(a0, b2, acc02);
        acc03 = _mm256_fmadd_ps(a0, b3, acc03);
        acc10 = _mm256_fmadd_ps(a1, b0, acc10);
        acc11 = _mm256_fmadd_ps(a1, b1, acc11);
        acc12 = _mm256_fmadd_ps(a1, b2, acc12);
        acc13 = _mm256_fmadd_ps(a1, b3, acc13);
      }
      _mm256_storeu_ps(crow0 + j, acc00);
      _mm256_storeu_ps(crow0 + j + 8, acc01);
      _mm256_storeu_ps(crow0 + j + 16, acc02);
      _mm256_storeu_ps(crow0 + j + 24, acc03);
      _mm256_storeu_ps(crow1 + j, acc10);
      _mm256_storeu_ps(crow1 + j + 8, acc11);
      _mm256_storeu_ps(crow1 + j + 16, acc12);
      _mm256_storeu_ps(crow1 + j + 24, acc13);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc0 = _mm256_loadu_ps(crow0 + j);
      __m256 acc1 = _mm256_loadu_ps(crow1 + j);
      for (std::int64_t idx = 0; idx < cnt; ++idx) {
        const std::int64_t i = use_list ? t.active[idx] : idx;
        const float* apos =
            t.a + static_cast<std::size_t>(i) * t.k + static_cast<std::size_t>(kk);
        const __m256 brow =
            _mm256_loadu_ps(t.b + static_cast<std::size_t>(i) * n + j);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(apos[0]), brow, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(apos[1]), brow, acc1);
      }
      _mm256_storeu_ps(crow0 + j, acc0);
      _mm256_storeu_ps(crow1 + j, acc1);
    }
    if (j < n) {
      const __m256i tm = tail_mask(n - j);
      __m256 acc0 = _mm256_maskload_ps(crow0 + j, tm);
      __m256 acc1 = _mm256_maskload_ps(crow1 + j, tm);
      for (std::int64_t idx = 0; idx < cnt; ++idx) {
        const std::int64_t i = use_list ? t.active[idx] : idx;
        const float* apos =
            t.a + static_cast<std::size_t>(i) * t.k + static_cast<std::size_t>(kk);
        const __m256 brow =
            _mm256_maskload_ps(t.b + static_cast<std::size_t>(i) * n + j, tm);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(apos[0]), brow, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(apos[1]), brow, acc1);
      }
      _mm256_maskstore_ps(crow0 + j, tm, acc0);
      _mm256_maskstore_ps(crow1 + j, tm, acc1);
    }
  }
  for (; kk < hi; ++kk) tn_acc_one(t, kk);
}

// ---------------------------------------------------------------------------
// The two NT kernels: output (i, j) is the dot product of A row i and B row
// j over k. Every output keeps one fixed recipe, so within the backend its
// bits never depend on its neighbours or on the chunking:
//   * four accumulator chains in ascending k: 32-wide steps into acc0..acc3,
//     the 8-wide remainder into acc0, the masked tail into acc1;
//   * s = (acc0 + acc1) + (acc2 + acc3);
//   * lanes summed as (lo + hi) -> (0 + 2, 1 + 3) -> (0 + 1), each add with
//     the lower lane as its first operand.
// Outputs go eight at a time: the A row's loads are shared by two B rows per
// pass (k >= 32) or held in registers across the whole row (k < 32, where
// only acc0 and acc1 are live), and the eight s-vectors are reduced together
// by hsum8, which applies that pairing lane by lane. Differs from scalar's
// single-accumulator order (ULP tolerance).
// ---------------------------------------------------------------------------

// Lane j of the result is the horizontal sum of s[j].
inline __m256 hsum8(const __m256* s) {
  // lo + hi: [s0.lo + s0.hi | s4.lo + s4.hi], and so on.
  const __m256 u04 = _mm256_add_ps(_mm256_permute2f128_ps(s[0], s[4], 0x20),
                                   _mm256_permute2f128_ps(s[0], s[4], 0x31));
  const __m256 u15 = _mm256_add_ps(_mm256_permute2f128_ps(s[1], s[5], 0x20),
                                   _mm256_permute2f128_ps(s[1], s[5], 0x31));
  const __m256 u26 = _mm256_add_ps(_mm256_permute2f128_ps(s[2], s[6], 0x20),
                                   _mm256_permute2f128_ps(s[2], s[6], 0x31));
  const __m256 u37 = _mm256_add_ps(_mm256_permute2f128_ps(s[3], s[7], 0x20),
                                   _mm256_permute2f128_ps(s[3], s[7], 0x31));
  // (0 + 2, 1 + 3): [s0 r02, s0 r13, s1 r02, s1 r13 | same for s4, s5].
  const __m256 v01 = _mm256_add_ps(_mm256_shuffle_ps(u04, u15, 0x44),
                                   _mm256_shuffle_ps(u04, u15, 0xEE));
  const __m256 v23 = _mm256_add_ps(_mm256_shuffle_ps(u26, u37, 0x44),
                                   _mm256_shuffle_ps(u26, u37, 0xEE));
  // 0 + 1: [s0, s1, s2, s3 | s4, s5, s6, s7].
  return _mm256_add_ps(_mm256_shuffle_ps(v01, v23, 0x88),
                       _mm256_shuffle_ps(v01, v23, 0xDD));
}

// s-vectors of x.y0 and x.y1 with all four chains (k >= 32).
inline void chains_pair(const float* x, const float* y0, const float* y1,
                        int k, __m256& s0, __m256& s1) {
  __m256 a00 = _mm256_setzero_ps(), a01 = a00, a02 = a00, a03 = a00;
  __m256 a10 = a00, a11 = a00, a12 = a00, a13 = a00;
  int kk = 0;
  for (; kk + 32 <= k; kk += 32) {
    const __m256 x0 = _mm256_loadu_ps(x + kk);
    const __m256 x1 = _mm256_loadu_ps(x + kk + 8);
    const __m256 x2 = _mm256_loadu_ps(x + kk + 16);
    const __m256 x3 = _mm256_loadu_ps(x + kk + 24);
    a00 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(y0 + kk), a00);
    a01 = _mm256_fmadd_ps(x1, _mm256_loadu_ps(y0 + kk + 8), a01);
    a02 = _mm256_fmadd_ps(x2, _mm256_loadu_ps(y0 + kk + 16), a02);
    a03 = _mm256_fmadd_ps(x3, _mm256_loadu_ps(y0 + kk + 24), a03);
    a10 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(y1 + kk), a10);
    a11 = _mm256_fmadd_ps(x1, _mm256_loadu_ps(y1 + kk + 8), a11);
    a12 = _mm256_fmadd_ps(x2, _mm256_loadu_ps(y1 + kk + 16), a12);
    a13 = _mm256_fmadd_ps(x3, _mm256_loadu_ps(y1 + kk + 24), a13);
  }
  for (; kk + 8 <= k; kk += 8) {
    const __m256 x0 = _mm256_loadu_ps(x + kk);
    a00 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(y0 + kk), a00);
    a10 = _mm256_fmadd_ps(x0, _mm256_loadu_ps(y1 + kk), a10);
  }
  if (kk < k) {
    const __m256i tm = tail_mask(k - kk);
    const __m256 xt = _mm256_maskload_ps(x + kk, tm);
    a01 = _mm256_fmadd_ps(xt, _mm256_maskload_ps(y0 + kk, tm), a01);
    a11 = _mm256_fmadd_ps(xt, _mm256_maskload_ps(y1 + kk, tm), a11);
  }
  s0 = _mm256_add_ps(_mm256_add_ps(a00, a01), _mm256_add_ps(a02, a03));
  s1 = _mm256_add_ps(_mm256_add_ps(a10, a11), _mm256_add_ps(a12, a13));
}

// Runs `emit(slot0, count, sums)` over output slots [0, slots) of A row x in
// groups of up to eight; `brow(slot)` is the slot's B row and lane l of
// `sums` is slot0 + l's dot product (lanes past `count` are +0, not
// outputs).
template <class BRow, class Emit>
void nt_row_long(const float* x, int k, std::int64_t slots, BRow brow,
                 Emit emit) {
  for (std::int64_t j0 = 0; j0 < slots; j0 += 8) {
    const int count = slots - j0 < 8 ? static_cast<int>(slots - j0) : 8;
    __m256 s[8];
    int l = 0;
    for (; l + 2 <= count; l += 2) {
      chains_pair(x, brow(j0 + l), brow(j0 + l + 1), k, s[l], s[l + 1]);
    }
    if (l < count) {
      const float* y = brow(j0 + l);
      chains_pair(x, y, y, k, s[l], s[l + 1]);
      ++l;
    }
    for (; l < 8; ++l) s[l] = _mm256_setzero_ps();
    emit(j0, count, hsum8(s));
  }
}

// k < 32: only acc0 (kFull 8-wide steps) and acc1 (the masked tail) are
// live, and acc2 + acc3 is +0. The A row stays in registers for the row.
// Without a tail acc1 is +0 too, and (acc0 + 0) + 0 == acc0 + 0 bit for bit
// (adding +0 only turns -0 into +0), so one add remains.
template <int kFull, bool kTail, class BRow, class Emit>
void nt_row_short(const float* x, int k, std::int64_t slots, BRow brow,
                  Emit emit) {
  const __m256 zero = _mm256_setzero_ps();
  __m256 xv[kFull > 0 ? kFull : 1];
  for (int q = 0; q < kFull; ++q) xv[q] = _mm256_loadu_ps(x + 8 * q);
  const __m256i tm = tail_mask(kTail ? k - 8 * kFull : 0);
  const __m256 xt = kTail ? _mm256_maskload_ps(x + 8 * kFull, tm) : zero;
  for (std::int64_t j0 = 0; j0 < slots; j0 += 8) {
    const int count = slots - j0 < 8 ? static_cast<int>(slots - j0) : 8;
    __m256 s[8];
    for (int l = 0; l < 8; ++l) {
      if (l >= count) {
        s[l] = zero;
        continue;
      }
      const float* y = brow(j0 + l);
      __m256 acc0 = zero;
      for (int q = 0; q < kFull; ++q) {
        acc0 = _mm256_fmadd_ps(xv[q], _mm256_loadu_ps(y + 8 * q), acc0);
      }
      if (kTail) {
        const __m256 acc1 = _mm256_fmadd_ps(
            xt, _mm256_maskload_ps(y + 8 * kFull, tm), zero);
        s[l] = _mm256_add_ps(_mm256_add_ps(acc0, acc1), zero);
      } else {
        s[l] = _mm256_add_ps(acc0, zero);
      }
    }
    emit(j0, count, hsum8(s));
  }
}

template <class BRow, class Emit>
void nt_row(const float* x, int k, std::int64_t slots, BRow brow, Emit emit) {
  switch (k < 32 ? k / 8 * 2 + (k % 8 != 0) : -1) {
    case 0: nt_row_short<0, false>(x, k, slots, brow, emit); break;
    case 1: nt_row_short<0, true>(x, k, slots, brow, emit); break;
    case 2: nt_row_short<1, false>(x, k, slots, brow, emit); break;
    case 3: nt_row_short<1, true>(x, k, slots, brow, emit); break;
    case 4: nt_row_short<2, false>(x, k, slots, brow, emit); break;
    case 5: nt_row_short<2, true>(x, k, slots, brow, emit); break;
    case 6: nt_row_short<3, false>(x, k, slots, brow, emit); break;
    case 7: nt_row_short<3, true>(x, k, slots, brow, emit); break;
    default: nt_row_long(x, k, slots, brow, emit); break;
  }
}

// C[m,n] = A[m,k] B^T[n,k], column mask over n; partition over i.
void v_matmul_nt_cols(const MatmulArgs& t, std::int64_t lo, std::int64_t hi) {
  const bool use_list = t.n_active >= 0;
  const std::int64_t cnt = use_list ? t.n_active : t.n;
  const std::size_t k = static_cast<std::size_t>(t.k);
  for (std::int64_t i = lo; i < hi; ++i) {
    float* crow = t.c + static_cast<std::size_t>(i) * t.n;
    if (use_list) {
      const std::int32_t* js = t.active;
      nt_row(
          t.a + i * k, t.k, cnt,
          [&](std::int64_t slot) { return t.b + js[slot] * k; },
          [&](std::int64_t j0, int count, __m256 sums) {
            alignas(32) float out[8];
            _mm256_store_ps(out, sums);
            for (int l = 0; l < count; ++l) crow[js[j0 + l]] = out[l];
          });
    } else {
      nt_row(
          t.a + i * k, t.k, cnt,
          [&](std::int64_t slot) { return t.b + slot * k; },
          [&](std::int64_t j0, int count, __m256 sums) {
            if (count == 8) {
              _mm256_storeu_ps(crow + j0, sums);
            } else {
              _mm256_maskstore_ps(crow + j0, tail_mask(count), sums);
            }
          });
    }
  }
}

// C[m,n] += A[m,k] B^T[n,k] over active rows m; partition over i.
void v_matmul_nt_rows_acc(const MatmulArgs& t, std::int64_t lo,
                          std::int64_t hi) {
  const std::size_t k = static_cast<std::size_t>(t.k);
  for (std::int64_t i = lo; i < hi; ++i) {
    if (t.mask != nullptr && t.mask[i] == 0) continue;
    float* crow = t.c + static_cast<std::size_t>(i) * t.n;
    nt_row(
        t.a + i * k, t.k, t.n,
        [&](std::int64_t slot) { return t.b + slot * k; },
        [&](std::int64_t j0, int count, __m256 sums) {
          if (count == 8) {
            _mm256_storeu_ps(crow + j0,
                             _mm256_add_ps(_mm256_loadu_ps(crow + j0), sums));
          } else {
            const __m256i tm = tail_mask(count);
            _mm256_maskstore_ps(
                crow + j0, tm,
                _mm256_add_ps(_mm256_maskload_ps(crow + j0, tm), sums));
          }
        });
  }
}

// ---------------------------------------------------------------------------
// C[m,k] += A[m,n] B[n,k] restricted to active inner n; partition over i.
// Register-tiles C 1x16 over kk with the active-j loop innermost (ascending
// j — scalar's per-element order); B rows are the streamed operand.
// ---------------------------------------------------------------------------
void nn_inner_one(const MatmulArgs& t, std::int64_t i) {
  const int n = t.n, k = t.k;
  const bool use_list = t.n_active >= 0;
  const std::int64_t cnt = use_list ? t.n_active : n;
  const float* arow = t.a + static_cast<std::size_t>(i) * n;
  float* crow = t.c + static_cast<std::size_t>(i) * k;
  int kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    __m256 acc0 = _mm256_loadu_ps(crow + kk);
    __m256 acc1 = _mm256_loadu_ps(crow + kk + 8);
    for (std::int64_t idx = 0; idx < cnt; ++idx) {
      const std::int64_t j = use_list ? t.active[idx] : idx;
      const __m256 aij = _mm256_set1_ps(arow[j]);
      const float* brow = t.b + static_cast<std::size_t>(j) * k + kk;
      acc0 = _mm256_fmadd_ps(aij, _mm256_loadu_ps(brow), acc0);
      acc1 = _mm256_fmadd_ps(aij, _mm256_loadu_ps(brow + 8), acc1);
    }
    _mm256_storeu_ps(crow + kk, acc0);
    _mm256_storeu_ps(crow + kk + 8, acc1);
  }
  for (; kk + 8 <= k; kk += 8) {
    __m256 acc = _mm256_loadu_ps(crow + kk);
    for (std::int64_t idx = 0; idx < cnt; ++idx) {
      const std::int64_t j = use_list ? t.active[idx] : idx;
      acc = _mm256_fmadd_ps(
          _mm256_set1_ps(arow[j]),
          _mm256_loadu_ps(t.b + static_cast<std::size_t>(j) * k + kk), acc);
    }
    _mm256_storeu_ps(crow + kk, acc);
  }
  if (kk < k) {
    const __m256i tm = tail_mask(k - kk);
    __m256 acc = _mm256_maskload_ps(crow + kk, tm);
    for (std::int64_t idx = 0; idx < cnt; ++idx) {
      const std::int64_t j = use_list ? t.active[idx] : idx;
      acc = _mm256_fmadd_ps(
          _mm256_set1_ps(arow[j]),
          _mm256_maskload_ps(t.b + static_cast<std::size_t>(j) * k + kk, tm),
          acc);
    }
    _mm256_maskstore_ps(crow + kk, tm, acc);
  }
}

void v_matmul_nn_inner_acc(const MatmulArgs& t, std::int64_t lo,
                           std::int64_t hi) {
  const int n = t.n, k = t.k;
  const bool use_list = t.n_active >= 0;
  const std::int64_t cnt = use_list ? t.n_active : n;
  std::int64_t i = lo;
  // 2 rows x 32 kk: eight independent accumulator chains, each B row load
  // shared by both rows. Per lane the active-j sequence matches the
  // one-row tile, so pairing and leftovers are bitwise interchangeable.
  for (; i + 2 <= hi; i += 2) {
    const float* arow0 = t.a + static_cast<std::size_t>(i) * n;
    const float* arow1 = arow0 + n;
    float* crow0 = t.c + static_cast<std::size_t>(i) * k;
    float* crow1 = crow0 + k;
    int kk = 0;
    for (; kk + 32 <= k; kk += 32) {
      __m256 acc00 = _mm256_loadu_ps(crow0 + kk);
      __m256 acc01 = _mm256_loadu_ps(crow0 + kk + 8);
      __m256 acc02 = _mm256_loadu_ps(crow0 + kk + 16);
      __m256 acc03 = _mm256_loadu_ps(crow0 + kk + 24);
      __m256 acc10 = _mm256_loadu_ps(crow1 + kk);
      __m256 acc11 = _mm256_loadu_ps(crow1 + kk + 8);
      __m256 acc12 = _mm256_loadu_ps(crow1 + kk + 16);
      __m256 acc13 = _mm256_loadu_ps(crow1 + kk + 24);
      for (std::int64_t idx = 0; idx < cnt; ++idx) {
        const std::int64_t j = use_list ? t.active[idx] : idx;
        const float* brow = t.b + static_cast<std::size_t>(j) * k + kk;
        const __m256 b0 = _mm256_loadu_ps(brow);
        const __m256 b1 = _mm256_loadu_ps(brow + 8);
        const __m256 b2 = _mm256_loadu_ps(brow + 16);
        const __m256 b3 = _mm256_loadu_ps(brow + 24);
        const __m256 a0 = _mm256_set1_ps(arow0[j]);
        const __m256 a1 = _mm256_set1_ps(arow1[j]);
        acc00 = _mm256_fmadd_ps(a0, b0, acc00);
        acc01 = _mm256_fmadd_ps(a0, b1, acc01);
        acc02 = _mm256_fmadd_ps(a0, b2, acc02);
        acc03 = _mm256_fmadd_ps(a0, b3, acc03);
        acc10 = _mm256_fmadd_ps(a1, b0, acc10);
        acc11 = _mm256_fmadd_ps(a1, b1, acc11);
        acc12 = _mm256_fmadd_ps(a1, b2, acc12);
        acc13 = _mm256_fmadd_ps(a1, b3, acc13);
      }
      _mm256_storeu_ps(crow0 + kk, acc00);
      _mm256_storeu_ps(crow0 + kk + 8, acc01);
      _mm256_storeu_ps(crow0 + kk + 16, acc02);
      _mm256_storeu_ps(crow0 + kk + 24, acc03);
      _mm256_storeu_ps(crow1 + kk, acc10);
      _mm256_storeu_ps(crow1 + kk + 8, acc11);
      _mm256_storeu_ps(crow1 + kk + 16, acc12);
      _mm256_storeu_ps(crow1 + kk + 24, acc13);
    }
    for (; kk + 8 <= k; kk += 8) {
      __m256 acc0 = _mm256_loadu_ps(crow0 + kk);
      __m256 acc1 = _mm256_loadu_ps(crow1 + kk);
      for (std::int64_t idx = 0; idx < cnt; ++idx) {
        const std::int64_t j = use_list ? t.active[idx] : idx;
        const __m256 bv =
            _mm256_loadu_ps(t.b + static_cast<std::size_t>(j) * k + kk);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(arow0[j]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(arow1[j]), bv, acc1);
      }
      _mm256_storeu_ps(crow0 + kk, acc0);
      _mm256_storeu_ps(crow1 + kk, acc1);
    }
    if (kk < k) {
      const __m256i tm = tail_mask(k - kk);
      __m256 acc0 = _mm256_maskload_ps(crow0 + kk, tm);
      __m256 acc1 = _mm256_maskload_ps(crow1 + kk, tm);
      for (std::int64_t idx = 0; idx < cnt; ++idx) {
        const std::int64_t j = use_list ? t.active[idx] : idx;
        const __m256 bv = _mm256_maskload_ps(
            t.b + static_cast<std::size_t>(j) * k + kk, tm);
        acc0 = _mm256_fmadd_ps(_mm256_set1_ps(arow0[j]), bv, acc0);
        acc1 = _mm256_fmadd_ps(_mm256_set1_ps(arow1[j]), bv, acc1);
      }
      _mm256_maskstore_ps(crow0 + kk, tm, acc0);
      _mm256_maskstore_ps(crow1 + kk, tm, acc1);
    }
  }
  for (; i < hi; ++i) nn_inner_one(t, i);
}

// ---------------------------------------------------------------------------
// C[n,k] = A^T[n,m] B[m,k] with row mask over n; partition over j.
// Register-tiles C 1x16 over kk with the i loop innermost (ascending i).
// ---------------------------------------------------------------------------
void tn_out_pair(const MatmulArgs& t, std::int64_t j0, std::int64_t j1,
                 int i0, int i1) {
  const int n = t.n, k = t.k;
  const float* acol0 = t.a + static_cast<std::size_t>(j0);
  const float* acol1 = t.a + static_cast<std::size_t>(j1);
  float* crow0 = t.c + static_cast<std::size_t>(j0) * k;
  float* crow1 = t.c + static_cast<std::size_t>(j1) * k;
  int kk = 0;
  // 2 output rows x 32 kk: eight independent accumulator chains, each B
  // row load shared by both output rows; per lane the i sequence matches
  // the one-row tile below, so pairing is bitwise interchangeable.
  for (; kk + 32 <= k; kk += 32) {
    __m256 acc00 = _mm256_loadu_ps(crow0 + kk);
    __m256 acc01 = _mm256_loadu_ps(crow0 + kk + 8);
    __m256 acc02 = _mm256_loadu_ps(crow0 + kk + 16);
    __m256 acc03 = _mm256_loadu_ps(crow0 + kk + 24);
    __m256 acc10 = _mm256_loadu_ps(crow1 + kk);
    __m256 acc11 = _mm256_loadu_ps(crow1 + kk + 8);
    __m256 acc12 = _mm256_loadu_ps(crow1 + kk + 16);
    __m256 acc13 = _mm256_loadu_ps(crow1 + kk + 24);
    for (int i = i0; i < i1; ++i) {
      const float* brow = t.b + static_cast<std::size_t>(i) * k + kk;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      const __m256 b2 = _mm256_loadu_ps(brow + 16);
      const __m256 b3 = _mm256_loadu_ps(brow + 24);
      const __m256 a0 =
          _mm256_set1_ps(acol0[static_cast<std::size_t>(i) * n]);
      const __m256 a1 =
          _mm256_set1_ps(acol1[static_cast<std::size_t>(i) * n]);
      acc00 = _mm256_fmadd_ps(a0, b0, acc00);
      acc01 = _mm256_fmadd_ps(a0, b1, acc01);
      acc02 = _mm256_fmadd_ps(a0, b2, acc02);
      acc03 = _mm256_fmadd_ps(a0, b3, acc03);
      acc10 = _mm256_fmadd_ps(a1, b0, acc10);
      acc11 = _mm256_fmadd_ps(a1, b1, acc11);
      acc12 = _mm256_fmadd_ps(a1, b2, acc12);
      acc13 = _mm256_fmadd_ps(a1, b3, acc13);
    }
    _mm256_storeu_ps(crow0 + kk, acc00);
    _mm256_storeu_ps(crow0 + kk + 8, acc01);
    _mm256_storeu_ps(crow0 + kk + 16, acc02);
    _mm256_storeu_ps(crow0 + kk + 24, acc03);
    _mm256_storeu_ps(crow1 + kk, acc10);
    _mm256_storeu_ps(crow1 + kk + 8, acc11);
    _mm256_storeu_ps(crow1 + kk + 16, acc12);
    _mm256_storeu_ps(crow1 + kk + 24, acc13);
  }
  for (; kk + 8 <= k; kk += 8) {
    __m256 acc0 = _mm256_loadu_ps(crow0 + kk);
    __m256 acc1 = _mm256_loadu_ps(crow1 + kk);
    for (int i = i0; i < i1; ++i) {
      const __m256 bv =
          _mm256_loadu_ps(t.b + static_cast<std::size_t>(i) * k + kk);
      acc0 = _mm256_fmadd_ps(
          _mm256_set1_ps(acol0[static_cast<std::size_t>(i) * n]), bv, acc0);
      acc1 = _mm256_fmadd_ps(
          _mm256_set1_ps(acol1[static_cast<std::size_t>(i) * n]), bv, acc1);
    }
    _mm256_storeu_ps(crow0 + kk, acc0);
    _mm256_storeu_ps(crow1 + kk, acc1);
  }
  if (kk < k) {
    const __m256i tm = tail_mask(k - kk);
    __m256 acc0 = _mm256_maskload_ps(crow0 + kk, tm);
    __m256 acc1 = _mm256_maskload_ps(crow1 + kk, tm);
    for (int i = i0; i < i1; ++i) {
      const __m256 bv =
          _mm256_maskload_ps(t.b + static_cast<std::size_t>(i) * k + kk, tm);
      acc0 = _mm256_fmadd_ps(
          _mm256_set1_ps(acol0[static_cast<std::size_t>(i) * n]), bv, acc0);
      acc1 = _mm256_fmadd_ps(
          _mm256_set1_ps(acol1[static_cast<std::size_t>(i) * n]), bv, acc1);
    }
    _mm256_maskstore_ps(crow0 + kk, tm, acc0);
    _mm256_maskstore_ps(crow1 + kk, tm, acc1);
  }
}

void tn_out_one(const MatmulArgs& t, std::int64_t j, int i0, int i1) {
  const int n = t.n, k = t.k;
  {
    const float* acol = t.a + static_cast<std::size_t>(j);
    float* crow = t.c + static_cast<std::size_t>(j) * k;
    int kk = 0;
    for (; kk + 16 <= k; kk += 16) {
      __m256 acc0 = _mm256_loadu_ps(crow + kk);
      __m256 acc1 = _mm256_loadu_ps(crow + kk + 8);
      for (int i = i0; i < i1; ++i) {
        const __m256 aij =
            _mm256_set1_ps(acol[static_cast<std::size_t>(i) * n]);
        const float* brow = t.b + static_cast<std::size_t>(i) * k + kk;
        acc0 = _mm256_fmadd_ps(aij, _mm256_loadu_ps(brow), acc0);
        acc1 = _mm256_fmadd_ps(aij, _mm256_loadu_ps(brow + 8), acc1);
      }
      _mm256_storeu_ps(crow + kk, acc0);
      _mm256_storeu_ps(crow + kk + 8, acc1);
    }
    for (; kk + 8 <= k; kk += 8) {
      __m256 acc = _mm256_loadu_ps(crow + kk);
      for (int i = i0; i < i1; ++i) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(acol[static_cast<std::size_t>(i) * n]),
            _mm256_loadu_ps(t.b + static_cast<std::size_t>(i) * k + kk), acc);
      }
      _mm256_storeu_ps(crow + kk, acc);
    }
    if (kk < k) {
      const __m256i tm = tail_mask(k - kk);
      __m256 acc = _mm256_maskload_ps(crow + kk, tm);
      for (int i = i0; i < i1; ++i) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(acol[static_cast<std::size_t>(i) * n]),
            _mm256_maskload_ps(t.b + static_cast<std::size_t>(i) * k + kk, tm),
            acc);
      }
      _mm256_maskstore_ps(crow + kk, tm, acc);
    }
  }
}

// Four output rows x 16 kk: halves B bandwidth per FLOP versus the pair
// tile (each streamed B row feeds four output rows), which is what bounds
// the L2-resident shapes. Same ascending-i per-element order as the pair
// and one-row tiles, so all three are bitwise interchangeable per row.
void tn_out_quad(const MatmulArgs& t, const std::int64_t* js, int i0,
                 int i1) {
  const int n = t.n, k = t.k;
  const float* acol[4];
  float* crow[4];
  for (int r = 0; r < 4; ++r) {
    acol[r] = t.a + static_cast<std::size_t>(js[r]);
    crow[r] = t.c + static_cast<std::size_t>(js[r]) * k;
  }
  int kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    __m256 acc00 = _mm256_loadu_ps(crow[0] + kk);
    __m256 acc01 = _mm256_loadu_ps(crow[0] + kk + 8);
    __m256 acc10 = _mm256_loadu_ps(crow[1] + kk);
    __m256 acc11 = _mm256_loadu_ps(crow[1] + kk + 8);
    __m256 acc20 = _mm256_loadu_ps(crow[2] + kk);
    __m256 acc21 = _mm256_loadu_ps(crow[2] + kk + 8);
    __m256 acc30 = _mm256_loadu_ps(crow[3] + kk);
    __m256 acc31 = _mm256_loadu_ps(crow[3] + kk + 8);
    for (int i = i0; i < i1; ++i) {
      const float* brow = t.b + static_cast<std::size_t>(i) * k + kk;
      const __m256 b0 = _mm256_loadu_ps(brow);
      const __m256 b1 = _mm256_loadu_ps(brow + 8);
      const std::size_t off = static_cast<std::size_t>(i) * n;
      __m256 av = _mm256_set1_ps(acol[0][off]);
      acc00 = _mm256_fmadd_ps(av, b0, acc00);
      acc01 = _mm256_fmadd_ps(av, b1, acc01);
      av = _mm256_set1_ps(acol[1][off]);
      acc10 = _mm256_fmadd_ps(av, b0, acc10);
      acc11 = _mm256_fmadd_ps(av, b1, acc11);
      av = _mm256_set1_ps(acol[2][off]);
      acc20 = _mm256_fmadd_ps(av, b0, acc20);
      acc21 = _mm256_fmadd_ps(av, b1, acc21);
      av = _mm256_set1_ps(acol[3][off]);
      acc30 = _mm256_fmadd_ps(av, b0, acc30);
      acc31 = _mm256_fmadd_ps(av, b1, acc31);
    }
    _mm256_storeu_ps(crow[0] + kk, acc00);
    _mm256_storeu_ps(crow[0] + kk + 8, acc01);
    _mm256_storeu_ps(crow[1] + kk, acc10);
    _mm256_storeu_ps(crow[1] + kk + 8, acc11);
    _mm256_storeu_ps(crow[2] + kk, acc20);
    _mm256_storeu_ps(crow[2] + kk + 8, acc21);
    _mm256_storeu_ps(crow[3] + kk, acc30);
    _mm256_storeu_ps(crow[3] + kk + 8, acc31);
  }
  for (; kk + 8 <= k; kk += 8) {
    __m256 acc0 = _mm256_loadu_ps(crow[0] + kk);
    __m256 acc1 = _mm256_loadu_ps(crow[1] + kk);
    __m256 acc2 = _mm256_loadu_ps(crow[2] + kk);
    __m256 acc3 = _mm256_loadu_ps(crow[3] + kk);
    for (int i = i0; i < i1; ++i) {
      const __m256 bv =
          _mm256_loadu_ps(t.b + static_cast<std::size_t>(i) * k + kk);
      const std::size_t off = static_cast<std::size_t>(i) * n;
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(acol[0][off]), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(acol[1][off]), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_set1_ps(acol[2][off]), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_set1_ps(acol[3][off]), bv, acc3);
    }
    _mm256_storeu_ps(crow[0] + kk, acc0);
    _mm256_storeu_ps(crow[1] + kk, acc1);
    _mm256_storeu_ps(crow[2] + kk, acc2);
    _mm256_storeu_ps(crow[3] + kk, acc3);
  }
  if (kk < k) {
    const __m256i tm = tail_mask(k - kk);
    __m256 acc0 = _mm256_maskload_ps(crow[0] + kk, tm);
    __m256 acc1 = _mm256_maskload_ps(crow[1] + kk, tm);
    __m256 acc2 = _mm256_maskload_ps(crow[2] + kk, tm);
    __m256 acc3 = _mm256_maskload_ps(crow[3] + kk, tm);
    for (int i = i0; i < i1; ++i) {
      const __m256 bv =
          _mm256_maskload_ps(t.b + static_cast<std::size_t>(i) * k + kk, tm);
      const std::size_t off = static_cast<std::size_t>(i) * n;
      acc0 = _mm256_fmadd_ps(_mm256_set1_ps(acol[0][off]), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_set1_ps(acol[1][off]), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_set1_ps(acol[2][off]), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_set1_ps(acol[3][off]), bv, acc3);
    }
    _mm256_maskstore_ps(crow[0] + kk, tm, acc0);
    _mm256_maskstore_ps(crow[1] + kk, tm, acc1);
    _mm256_maskstore_ps(crow[2] + kk, tm, acc2);
    _mm256_maskstore_ps(crow[3] + kk, tm, acc3);
  }
}

void v_matmul_tn_out_rows(const MatmulArgs& t, std::int64_t lo,
                          std::int64_t hi) {
  // Outer i-blocking: B is fully streamed once per output-row pair, so at
  // shapes where B spills L2 (m*k beyond ~128k floats) every pair would
  // re-fetch it from L3. Visiting all output rows per i-block instead
  // reuses each B block across the whole range. Block boundaries depend
  // only on m, and per element the i order (ascending blocks, ascending
  // within) equals the unblocked loop, so chunking and pairing stay
  // bitwise interchangeable.
  constexpr int kIBlock = 64;
  for (int i0 = 0; i0 < t.m; i0 += kIBlock) {
    const int i1 = i0 + kIBlock < t.m ? i0 + kIBlock : t.m;
    // Gather active output rows into quads (rows need not be adjacent);
    // leftovers take the pair / one-row tiles, bitwise identical per row.
    std::int64_t js[4];
    int nj = 0;
    for (std::int64_t j = lo; j < hi; ++j) {
      if (t.mask != nullptr && t.mask[j] == 0) continue;
      js[nj] = j;
      if (++nj == 4) {
        tn_out_quad(t, js, i0, i1);
        nj = 0;
      }
    }
    if (nj >= 2) tn_out_pair(t, js[0], js[1], i0, i1);
    if (nj & 1) tn_out_one(t, js[nj - 1], i0, i1);
  }
}

// ---------------------------------------------------------------------------
// SGD update. Exact operation order of the scalar reference with
// mul/add only (no FMA; -ffp-contract=off keeps the compiler from
// introducing any) — bitwise identical to scalar. Frozen lanes are restored
// via blendv, so their bytes never change.
// ---------------------------------------------------------------------------
inline __m256 active_lanes(const std::uint8_t* frozen, std::size_t i) {
  const __m128i bytes = _mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(frozen + i));
  const __m256i lanes = _mm256_cvtepu8_epi32(bytes);
  return _mm256_castsi256_ps(
      _mm256_cmpeq_epi32(lanes, _mm256_setzero_si256()));
}

void v_sgd_update(const SgdArgs& t) {
  const std::size_t vec = t.count & ~std::size_t{7};
  const __m256 lr = _mm256_set1_ps(t.lr);
  const __m256 mom = _mm256_set1_ps(t.momentum);
  const __m256 wd = _mm256_set1_ps(t.weight_decay);
  const __m256 clip = _mm256_set1_ps(t.clip_scale);
  for (std::size_t i = 0; i < vec; i += 8) {
    const __m256 w = _mm256_loadu_ps(t.w + i);
    const __m256 g = _mm256_loadu_ps(t.g + i);
    __m256 grad = _mm256_add_ps(_mm256_mul_ps(g, clip), _mm256_mul_ps(wd, w));
    if (t.v != nullptr) {
      const __m256 v_old = _mm256_loadu_ps(t.v + i);
      __m256 v_new = _mm256_add_ps(_mm256_mul_ps(mom, v_old), grad);
      if (t.frozen != nullptr) {
        v_new = _mm256_blendv_ps(v_old, v_new, active_lanes(t.frozen, i));
      }
      _mm256_storeu_ps(t.v + i, v_new);
      grad = v_new;
    }
    __m256 w_new = _mm256_sub_ps(w, _mm256_mul_ps(lr, grad));
    if (t.frozen != nullptr) {
      w_new = _mm256_blendv_ps(w, w_new, active_lanes(t.frozen, i));
    }
    _mm256_storeu_ps(t.w + i, w_new);
  }
  for (std::size_t i = vec; i < t.count; ++i) {
    if (t.frozen && t.frozen[i]) continue;
    float grad = t.g[i] * t.clip_scale + t.weight_decay * t.w[i];
    if (t.v != nullptr) {
      t.v[i] = t.momentum * t.v[i] + grad;
      grad = t.v[i];
    }
    t.w[i] -= t.lr * grad;
  }
}

}  // namespace

const KernelTable& avx2_kernels() {
  static const KernelTable table = {
      /*name=*/"avx2",
      /*id=*/Backend::kAvx2,
      /*use_index_lists=*/true,
      /*matmul_rows=*/v_matmul_rows,
      /*matmul_tn_acc=*/v_matmul_tn_acc,
      /*matmul_nt_cols=*/v_matmul_nt_cols,
      /*matmul_nn_inner_acc=*/v_matmul_nn_inner_acc,
      /*matmul_tn_out_rows=*/v_matmul_tn_out_rows,
      /*matmul_nt_rows_acc=*/v_matmul_nt_rows_acc,
      /*sgd_update=*/v_sgd_update,
  };
  return table;
}

}  // namespace helios::tensor::backend

#endif  // HELIOS_HAVE_AVX2
