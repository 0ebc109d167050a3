// PCLMULQDQ folding for the reflected CRC-32 (0xEDB88320), after Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), the scheme zlib's crc32_sse42_simd_ uses.
//
// Four 128-bit lanes fold 64 bytes per step; they are folded into one lane,
// which then takes the remaining 16-byte blocks; the 128-bit remainder is
// folded to 64 bits and Barrett-reduced to the 32-bit register. The value
// equals the slicing-by-4 tables' for every input. This TU is compiled with
// -mpclmul; wire.cpp only calls it after util::cpu_has_pclmul().
#include "net/crc32_fold.h"

#include <wmmintrin.h>

namespace helios::net::detail {
namespace {

// Bit-reflected folding constants (x^k mod P, shifted left by one): k1/k2
// fold a lane across 512 bits, k3/k4 across 128 bits, k5 folds 96 bits to
// 64; mu = floor(x^64 / P) and P itself (33 bits each) drive the Barrett
// reduction.
constexpr long long kK1 = 0x0154442bd4;
constexpr long long kK2 = 0x01c6e41596;
constexpr long long kK3 = 0x01751997d0;
constexpr long long kK4 = 0x00ccaa009e;
constexpr long long kK5 = 0x0163cd6124;
constexpr long long kP = 0x01db710641;
constexpr long long kMu = 0x01f7011641;

__m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// lane * x^(distance) mod P, with the 128-bit `next` block xored in: the
/// low half multiplies the constant pair's low word, the high half its high
/// word.
__m128i fold(__m128i lane, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

}  // namespace

std::uint32_t crc32_fold(std::uint32_t state,
                         std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  std::size_t left = bytes.size();

  __m128i x1 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  left -= 64;

  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  for (; left >= 64; p += 64, left -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; left >= 16; p += 16, left -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits: the low half times k4 into the high half, then the low
  // 32 bits of that times k5 into the rest.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));

  // Barrett reduction to the 32-bit register.
  const __m128i poly = _mm_set_epi64x(kMu, kP);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

}  // namespace helios::net::detail
