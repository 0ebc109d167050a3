#include "util/cpuid.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define HELIOS_CPUID_X86 1
#else
#define HELIOS_CPUID_X86 0
#endif

namespace helios::util {

bool cpu_has_avx2_fma() {
#if HELIOS_CPUID_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_pclmul() {
#if HELIOS_CPUID_X86
  return __builtin_cpu_supports("pclmul");
#else
  return false;
#endif
}

std::string cpu_feature_string() {
#if HELIOS_CPUID_X86
  std::string s = "x86-64";
  if (__builtin_cpu_supports("avx2")) s += " avx2";
  if (__builtin_cpu_supports("fma")) s += "+fma";
  return s;
#else
  return "portable (no simd)";
#endif
}

}  // namespace helios::util
