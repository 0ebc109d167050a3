// Crash-safe file replacement: write a temporary sibling, fsync it, then
// rename() over the destination. A reader never observes a torn file — it
// sees either the complete old contents or the complete new contents,
// because rename(2) is atomic within a filesystem. Used by every artifact
// writer that a crash-tolerant run may race against (checkpoints and the
// telemetry artifacts).
#pragma once

#include <string>
#include <string_view>

namespace helios::util {

/// Atomically replaces `path` with `contents`. Writes `<path>.tmp.<pid>`,
/// flushes and fsyncs it, then renames it into place (and fsyncs the parent
/// directory so the rename itself survives a power cut on POSIX). Throws
/// std::runtime_error on any I/O failure; the destination is untouched in
/// that case and the temporary is cleaned up best-effort.
void atomic_write_file(const std::string& path, std::string_view contents);

}  // namespace helios::util
