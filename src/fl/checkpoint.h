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
// event heaps, ...) via the Strategy save/load hooks.
//
// File format (schema v1):
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
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace helios::fl {

class Fleet;
struct RunResult;

/// Any checkpoint problem: framing (bad magic / version / CRC / length),
/// schema drift, or a state/architecture mismatch at restore.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// v2: per-client loader state gained a validity gate (lazy-data clients can
// be snapshotted while data-hibernated, with no loader built yet).
// v3: fully-asynchronous Asyn. FL took AFO's event-engine layout (model
// version counter + per-device start versions).
inline constexpr std::uint32_t kCheckpointVersion = 3;

/// Little-endian binary encoder for checkpoint payloads. All multi-byte
/// values are explicitly little-endian, so a snapshot is portable across
/// builds on the (LE) platforms the project targets.
class CheckpointWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f32(float v);
  void f64(double v);
  void str(std::string_view s);
  void rng(const util::RngState& s);
  void vec_f32(const std::vector<float>& v);
  void vec_f64(const std::vector<double>& v);
  void vec_i32(const std::vector<int>& v);
  void vec_u8(const std::vector<std::uint8_t>& v);
  void vec_size(const std::vector<std::size_t>& v);
  /// A length-prefixed nested payload (component / strategy sections), so a
  /// reader can verify it consumed the section exactly.
  void blob(const std::string& bytes);

  const std::string& buffer() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Mirror decoder; every read throws CheckpointError on payload overrun, so
/// a truncated or trailing-garbage section cannot be silently accepted.
class CheckpointReader {
 public:
  explicit CheckpointReader(std::string_view data) : data_(data) {}

  std::uint8_t u8();
  bool boolean() { return u8() != 0; }
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32();
  double f64();
  std::string str();
  util::RngState rng();
  std::vector<float> vec_f32();
  std::vector<double> vec_f64();
  std::vector<int> vec_i32();
  std::vector<std::uint8_t> vec_u8();
  std::vector<std::size_t> vec_size();
  std::string blob();
  /// Reads a u32 element count and checks that the rest of the payload
  /// can hold that many elements of at least `bytes_each` encoded bytes, so
  /// nothing is sized by a count the payload cannot back. Throws
  /// CheckpointError otherwise.
  std::uint32_t count(std::size_t bytes_each);

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  /// Throws unless the payload was consumed exactly.
  void expect_done(const char* what) const;

 private:
  const char* need(std::size_t n);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// A component with cross-round state that rides inside the fleet snapshot
/// (e.g. sim::ChurnProcess). Registered by name via
/// Fleet::register_checkpointable; names and registration order must match
/// between the saving and the resuming process.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void save_state(const Fleet& fleet, CheckpointWriter& w) const = 0;
  /// Restores the snapshotted state. May mutate the fleet roster (churn
  /// re-admits its joiners here, before per-client state loads).
  virtual void load_state(Fleet& fleet, CheckpointReader& r) = 0;
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
