// Crash-tolerant checkpoint/resume of the full collaboration state.
//
// A checkpoint is a versioned binary snapshot of *everything* a run needs
// to continue bit-identically after the process dies at a round boundary:
// the server's global parameters and buffers, the virtual clock, every
// client's cross-round state (optimizer velocity, data-loader position,
// volume, lr-decay counter, roster flags), the network session's channel
// roster with per-device RNG positions / scripted faults, the journal's
// byte offset, the partial RunResult recorded so far, and the strategy's
// own state (per-neuron contributions U^ij, C_s rotation counters, async
// event heaps, ...).
//
// Every section is defined once, as a walk over util::CheckpointArchive
// that both saves and restores it (see util/checkpoint_archive.h): the
// payload walk in checkpoint.cpp (meta, components, roster, clock, server,
// session, rounds, strategy), Client::io for a client's state, and
// Checkpointable::io for each strategy and registered component. Checks
// that restored values are usable sit inside those walks, so a restore
// throws CheckpointError rather than handing a later round state it would
// crash or hang on.
//
// File format (schema v3):
//
//   magic "HELIOSFK" | u32 version | u64 payload_size | u32 crc32(payload)
//   | payload
//
// written atomically via util::atomic_write_file, so a reader sees either
// the complete previous generation or the complete new one — never a torn
// file. CheckpointManager keeps the last K generations (`<base>.gen<N>`)
// and falls back to generation K-1 when the newest file is truncated or
// corrupt.
//
// The resume contract: rebuild the identical setup (fleet from the same
// specs/seeds/datasets, same sampler, same NetworkSession options, a fresh
// strategy with the same config), then Fleet::resume(path, &strategy) and
// Strategy::run_range(fleet, partial, partial.rounds.size(), cycles). The
// static configuration — model architecture, datasets, profiles — is NOT in
// the snapshot; it is re-derived from code, which is what keeps hollow
// (hibernated) clients free: their replicas rebuild from the spec on first
// use. The checkpoint rejects mismatched architectures (spec name, param /
// buffer / neuron counts, client roster) with a clear error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/checkpoint_archive.h"

namespace helios::fl {

class Fleet;
struct RunResult;

using util::CheckpointArchive;
using util::CheckpointError;

// v2: per-client loader state gained a validity gate (lazy-data clients can
// be snapshotted while data-hibernated, with no loader built yet).
// v3: fully-asynchronous Asyn. FL took AFO's event-engine layout (model
// version counter + per-device start versions).
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// A component with cross-round state that rides inside the fleet snapshot
/// (e.g. sim::ChurnProcess), and the base of every Strategy. Components are
/// registered by name via Fleet::register_checkpointable; names and
/// registration order must match between the saving and the resuming
/// process.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  /// Passes the cross-round state through `ar`, which saves it or restores
  /// it (ar.loading()). A restore may mutate the fleet roster (churn
  /// re-admits its joiners here, before per-client state loads) and throws
  /// CheckpointError on state the next round could not run from.
  virtual void io(Fleet& fleet, CheckpointArchive& ar) = 0;
};

// ---- File framing ---------------------------------------------------------

/// Frames `payload` (magic + version + size + CRC32) and replaces `path`
/// atomically (temp + fsync + rename). A crash at any instant leaves either
/// the previous complete file or the new complete file.
void write_checkpoint_file(const std::string& path, std::string_view payload);

/// Validates the framing of `path` and returns the payload. Throws
/// CheckpointError with a specific reason on a missing file, short header,
/// bad magic, unsupported version, truncated payload, trailing bytes, or a
/// CRC mismatch (bit flips anywhere in the file are caught).
std::string read_checkpoint_file(const std::string& path);

/// Cheap header probe of a checkpoint, readable before the fleet (or the
/// telemetry sink) for the resumed process exists. Used to reopen the
/// journal at the right byte offset and to size the remaining work.
struct CheckpointInfo {
  std::string spec_name;
  std::string method;
  int completed_cycles = 0;
  std::uint64_t journal_byte_offset = 0;
  std::uint64_t journal_events = 0;
};
CheckpointInfo peek_checkpoint(const std::string& path);

// ---- Generations ----------------------------------------------------------

/// Keeps the last K checkpoint generations under `<base>.gen<number>`.
/// save() writes the next generation atomically and prunes the oldest;
/// latest_valid() returns the newest generation whose framing validates,
/// silently skipping torn or corrupt files — the fallback that makes a
/// SIGKILL mid-checkpoint-write recoverable.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string base_path, int keep_last = 3);

  const std::string& base_path() const { return base_; }
  int keep_last() const { return keep_last_; }

  /// Existing generation numbers, ascending.
  std::vector<long> generations() const;
  std::string generation_path(long n) const;

  /// Writes `payload` as the next generation; returns its path.
  std::string save(std::string_view payload);

  /// Newest generation that validates; fills `payload_out` (when non-null)
  /// with its payload. std::nullopt when no valid generation exists.
  std::optional<std::string> latest_valid(std::string* payload_out) const;

 private:
  std::string base_;
  int keep_last_;
};

// ---- Full-state payloads ---------------------------------------------------

class Strategy;

/// Serializes the complete collaboration state of `fleet` (+ the strategy's
/// state when non-null, + every registered Checkpointable) together with the
/// partial RunResult recorded so far.
std::string make_checkpoint_payload(Fleet& fleet, const Strategy* strategy,
                                    const RunResult& partial);

/// Restores a payload into a freshly rebuilt `fleet` (and `strategy`);
/// returns the partial RunResult — resume running at cycle
/// partial.rounds.size(). Throws CheckpointError on any mismatch with the
/// rebuilt setup (architecture, roster, strategy name, component names).
RunResult restore_checkpoint_payload(Fleet& fleet, Strategy* strategy,
                                     std::string_view payload);

// ---- Resumable run driver --------------------------------------------------

struct ResumableOptions {
  /// Generation base path, e.g. "run/ckpt" -> run/ckpt.gen0, .gen1, ...
  std::string base_path;
  int keep_last = 3;
  /// Checkpoint every N completed rounds.
  int checkpoint_every = 1;
};

/// Runs `cycles` rounds with a checkpoint at every round boundary, resuming
/// from the newest valid generation if one exists (the strategy must be
/// freshly constructed with the same configuration). The returned RunResult
/// covers all `cycles` rounds — restored prefix plus freshly run suffix —
/// and is bit-identical to an uninterrupted Strategy::run of the same setup.
RunResult run_resumable(Fleet& fleet, Strategy& strategy, int cycles,
                        const ResumableOptions& opts);

}  // namespace helios::fl
