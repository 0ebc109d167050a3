// The carry-less-multiply folding path of net::crc32, internal to
// helios_net: declared for the dispatcher in wire.cpp and defined in
// crc32_pclmul.cpp, the one TU compiled with -mpclmul. Builds without that
// TU (non-x86 targets, toolchains lacking the flag) leave
// HELIOS_HAVE_PCLMUL undefined and run the slicing-by-4 tables alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace helios::net::detail {

/// Smallest buffer the folding path takes: four 16-byte lanes.
inline constexpr std::size_t kCrcFoldMinBytes = 64;

/// Advances a running CRC-32 state (the register before the final
/// inversion) over `bytes` by PCLMULQDQ folding. Requires bytes.size() >=
/// kCrcFoldMinBytes and a multiple of 16, and a CPU with PCLMULQDQ.
std::uint32_t crc32_fold(std::uint32_t state,
                         std::span<const std::uint8_t> bytes);

}  // namespace helios::net::detail
