// Runtime CPU feature detection for the SIMD dispatch.
//
// The tensor backend layer (tensor/backend/dispatch.h) picks a kernel table
// and net::crc32 picks its folding path at startup, based on what the
// *running* CPU supports, independent of what the compiler was allowed to
// emit for the rest of the build. Only the features a dispatch actually
// keys on are exposed; everything degrades to `false` on non-x86 targets or
// toolchains without __builtin_cpu_supports.
#pragma once

#include <string>

namespace helios::util {

/// True when the running CPU supports both AVX2 and FMA3 (the Helios AVX2
/// kernel TU is compiled with -mavx2 -mfma, so both are required).
bool cpu_has_avx2_fma();

/// True when the running CPU has PCLMULQDQ (carry-less multiply), which
/// net::crc32's folding path needs.
bool cpu_has_pclmul();

/// Short human-readable feature summary for logs / metrics, e.g.
/// "x86-64 avx2+fma" or "portable (no simd)".
std::string cpu_feature_string();

}  // namespace helios::util
