// Hostile checkpoints through peek_checkpoint and Fleet::resume: a
// deterministic mutator over the payloads of the pinned configurations
// (checkpoint_rigs.h). Mutants are bit flips, truncations, lying u32
// counts and u64 section lengths anywhere in the layout (0, 1, n-1, n+1,
// 2^31, 2^32-1), and splices of two configurations' payloads; 7 in 8 get
// their size and CRC recomputed so that they reach the payload walk behind
// the framing. Each mutant is written to a file, probed with
// peek_checkpoint and resumed into a freshly built rig. The contract: the
// restore throws CheckpointError, or it returns and one more round
// completes or throws CheckpointError (a hibernated client's stashed
// loader order meets its shard only when the shard is rebuilt) — never
// another exception, and under the sanitized presets never a sanitizer
// report.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "checkpoint_rigs.h"
#include "net/wire.h"
#include "util/rng.h"

namespace helios {
namespace {

using testing::RigKind;

constexpr std::size_t kHeader = 24;  // magic, version, size, CRC

struct Base {
  RigKind kind;
  const char* name;
  int mutants;
  std::string payload;
  /// Offsets (and widths) of the payload's counts and section lengths.
  std::vector<std::pair<std::size_t, int>> counts;
};

/// What a walk of a valid payload's layout finds.
struct Layout {
  /// Offsets (and widths) of every u32 length (strings, vectors, maps and
  /// tables) and every section's u64 length, inside the component and
  /// strategy sections too.
  std::vector<std::pair<std::size_t, int>> counts;
  /// Offset of the fleet clock's double.
  std::size_t clock = 0;
};

Layout walk_layout(std::string_view payload) {
  Layout out;
  fl::CheckpointArchive ar(payload);
  auto at = [&] { return payload.size() - ar.remaining(); };
  auto mark = [&](int width) { out.counts.emplace_back(at(), width); };
  auto skip = [&](auto value) { ar.io(value); };
  auto str = [&] {
    mark(4);
    std::string s;
    ar.io(s);
    return s;
  };
  auto vec = [&](auto value) {
    mark(4);
    ar.io(value);
  };
  auto count = [&](std::size_t each) {
    mark(4);
    return ar.count(0, each);
  };
  constexpr std::size_t kRng = fl::CheckpointArchive::kRngBytes;
  const util::RngState rng;
  // A component or strategy section by name: its u64 length, then its
  // layout, which must end where the length says.
  auto section = [&](const std::string& name) {
    mark(8);
    std::uint64_t length = 0;
    ar.io(length);
    const std::size_t end = at() + length;
    if (name == "churn") {
      skip(rng);
      skip(double{});
      for (std::uint32_t n = count(12), i = 0; i < n; ++i) {
        skip(std::int32_t{});
        skip(double{});
      }
      vec(std::vector<int>{});
    } else if (name == "hierarchy") {
      skip(std::int32_t{});
      skip(std::int32_t{});
      for (std::uint32_t n = count(kRng), i = 0; i < n; ++i) skip(rng);
    } else if (name == "codec_ef") {
      for (std::uint32_t n = count(8), i = 0; i < n; ++i) {
        skip(std::int32_t{});
        vec(std::vector<float>{});
      }
    } else if (name == "Helios") {
      for (std::uint32_t n = count(16 + kRng + 4), i = 0; i < n; ++i) {
        skip(std::int32_t{});
        skip(double{});
        vec(std::vector<double>{});
        skip(rng);
        vec(std::vector<int>{});
      }
    } else if (name == "Random") {
      for (std::uint32_t n = count(4 + kRng), i = 0; i < n; ++i) {
        skip(std::int32_t{});
        skip(rng);
      }
    } else if (name == "Static Prune") {
      for (std::uint32_t n = count(8), i = 0; i < n; ++i) {
        skip(std::int32_t{});
        vec(std::vector<std::uint8_t>{});
      }
    } else if (name == "Asyn. FL (period 2)") {
      for (std::uint32_t n = count(17), i = 0; i < n; ++i) {
        skip(std::int32_t{});
        vec(std::vector<float>{});
        vec(std::vector<float>{});
        skip(false);
        skip(std::int32_t{});
      }
    } else if (name == "Asyn. FL" || name == "AFO") {
      skip(std::int64_t{});
      for (int k = 0; k < 2; ++k) skip(std::int32_t{});
      for (int k = 0; k < 2; ++k) skip(double{});
      skip(std::int32_t{});
      vec(std::vector<std::uint8_t>{});
      for (std::uint32_t n = count(12), i = 0; i < n; ++i) {
        skip(double{});
        skip(std::int32_t{});
      }
      for (std::uint32_t n = count(16), i = 0; i < n; ++i) {
        vec(std::vector<float>{});
        vec(std::vector<float>{});
        skip(std::int64_t{});
      }
    } else {
      skip(rng);  // SyncFL's participation stream
    }
    EXPECT_EQ(at(), end) << "the count walk misreads section " << name;
  };
  str();  // spec
  for (int i = 0; i < 2; ++i) skip(std::uint64_t{});
  skip(std::int32_t{});
  str();  // method
  skip(std::int32_t{});
  for (int i = 0; i < 2; ++i) skip(std::uint64_t{});
  for (std::uint32_t n = count(12), i = 0; i < n; ++i) section(str());
  for (std::uint32_t n = count(28), i = 0; i < n; ++i) {
    skip(std::int32_t{});
    skip(false);
    skip(false);
    skip(double{});
    skip(std::int32_t{});
    skip(float{});
    skip(false);
    bool loader = false;
    ar.io(loader);
    if (loader) {
      skip(rng);
      vec(std::vector<std::size_t>{});
      skip(std::uint64_t{});
    }
    vec(std::vector<float>{});
  }
  out.clock = at();
  skip(double{});
  vec(std::vector<float>{});
  vec(std::vector<float>{});
  bool session = false;
  ar.io(session);
  if (session) {
    skip(false);
    for (std::uint32_t n = count(36), i = 0; i < n; ++i) {
      skip(std::int32_t{});
      for (int k = 0; k < 4; ++k) skip(double{});
    }
    for (std::uint32_t n = count(4 + 48 + kRng + 12), i = 0; i < n; ++i) {
      skip(std::int32_t{});
      for (int k = 0; k < 5; ++k) skip(double{});
      skip(rng);
      skip(double{});
      for (std::uint32_t m = count(16), k = 0; k < 2 * m; ++k) {
        skip(double{});
      }
    }
  }
  for (std::uint32_t n = count(36), i = 0; i < n; ++i) {
    skip(std::int32_t{});
    for (int k = 0; k < 4; ++k) skip(double{});
  }
  bool strategy = false;
  ar.io(strategy);
  if (strategy) section(str());
  EXPECT_TRUE(ar.done()) << "the count walk misreads the layout";
  return out;
}

void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int b = 0; b < width; ++b) {
    bytes[at + static_cast<std::size_t>(b)] = static_cast<char>(v >> (8 * b));
  }
}

std::uint64_t get_le(const std::string& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int b = width - 1; b >= 0; --b) {
    v = (v << 8) |
        static_cast<std::uint8_t>(bytes[at + static_cast<std::size_t>(b)]);
  }
  return v;
}

/// `payload` framed as a checkpoint file.
std::string framed(const std::string& payload) {
  std::string file("HELIOSFK", 8);
  file.resize(kHeader);
  put_le(file, 8, fl::kCheckpointVersion, 4);
  put_le(file, 12, payload.size(), 8);
  put_le(file, 20,
         net::crc32(std::span<const std::uint8_t>(
             reinterpret_cast<const std::uint8_t*>(payload.data()),
             payload.size())),
         4);
  return file + payload;
}

struct Mutant {
  std::string file;
  RigKind kind;  ///< the rig it restores into
  std::string what;
};

/// One deterministic mutant of base `b` (splices take their tail from
/// another base).
Mutant mutate(const std::vector<Base>& bases, const Base& b, util::Rng& rng) {
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  std::string m = b.payload;
  Mutant out{{}, b.kind, b.name};
  switch (pick(4)) {
    case 0: {
      const std::size_t flips = 1 + pick(4);
      for (std::size_t i = 0; i < flips; ++i) {
        m[pick(m.size())] ^= static_cast<char>(1U << pick(8));
      }
      out.what += " bit flips";
      break;
    }
    case 1:
      m.resize(pick(m.size()));
      out.what += " truncated to " + std::to_string(m.size());
      break;
    case 2: {
      const auto [at, width] = b.counts[pick(b.counts.size())];
      const std::uint64_t n = get_le(m, at, width);
      const std::uint64_t lies[] = {0,
                                    1,
                                    n - 1,
                                    n + 1,
                                    std::uint64_t{1} << 31,
                                    0xFFFFFFFFULL};
      const std::uint64_t lie = lies[pick(std::size(lies))];
      put_le(m, at, lie, width);
      out.what += " count @" + std::to_string(at) + " = " +
                  std::to_string(lie);
      break;
    }
    default: {
      const Base& other = bases[pick(bases.size())];
      const std::size_t head = pick(m.size());
      const std::size_t tail = pick(other.payload.size());
      m.resize(head);
      m.append(other.payload, tail);
      out.what += " spliced at " + std::to_string(head) + " with " +
                  other.name + " from " + std::to_string(tail);
      break;
    }
  }
  if (pick(8) != 0) {
    out.file = framed(m);
    out.what += " (size and CRC fixed)";
  } else {
    // The original header over the mutated payload.
    out.file = framed(b.payload).substr(0, kHeader) + m;
  }
  return out;
}

/// Restores `path` into a fresh rig of `kind` and runs one more round.
void restore_and_step(RigKind kind, const std::string& path) {
  (void)fl::peek_checkpoint(path);
  testing::CheckpointRig rig = testing::make_rig(kind);
  fl::RunResult result = rig.fleet->resume(path, rig.strategy.get());
  const int begin = static_cast<int>(result.rounds.size());
  rig.strategy->run_range(*rig.fleet, result, begin, begin + 1);
}

struct Sweep {
  std::filesystem::path dir;
  std::vector<Base> bases;

  Sweep() {
    // One directory per test: ctest runs the tests of this binary at once.
    dir = std::filesystem::temp_directory_path() /
          (std::string("helios_checkpoint_hostile_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir);
    // Fewer mutants for the rigs whose rounds cost the most.
    const Base plan[] = {
        {RigKind::kHeliosTree, "helios_tree", 150, {}, {}},
        {RigKind::kAfoSampled, "afo_sampled", 150, {}, {}},
        {RigKind::kAsync, "async", 350, {}, {}},
        {RigKind::kAsyncPeriod, "async_period", 350, {}, {}},
        {RigKind::kRandom, "random", 350, {}, {}},
        {RigKind::kStatic, "static", 350, {}, {}},
        {RigKind::kSyncMomentum, "sync_momentum", 350, {}, {}},
    };
    for (const Base& p : plan) {
      Base b = p;
      b.payload = testing::make_rig(b.kind).pinned_payload();
      b.counts = walk_layout(b.payload).counts;
      bases.push_back(std::move(b));
    }
  }
  ~Sweep() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::string write(const std::string& name, const std::string& bytes) const {
    const std::string path = (dir / name).string();
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(os.good()) << "cannot write " << path;
    return path;
  }
};

TEST(HostileCheckpointTest, PinnedPayloadsRestoreAndRun) {
  const Sweep sweep;
  for (const Base& b : sweep.bases) {
    EXPECT_FALSE(b.counts.empty()) << b.name;
    EXPECT_NO_THROW(
        restore_and_step(b.kind, sweep.write("valid", framed(b.payload))))
        << b.name;
  }
}

TEST(HostileCheckpointTest, MutantsRestoreOrThrowCheckpointError) {
  const Sweep sweep;
  util::Rng rng(0xC4EC);
  int total = 0;
  int refused = 0;
  for (const Base& b : sweep.bases) {
    for (int i = 0; i < b.mutants; ++i, ++total) {
      const Mutant m = mutate(sweep.bases, b, rng);
      try {
        restore_and_step(m.kind, sweep.write("mutant", m.file));
      } catch (const fl::CheckpointError&) {
        ++refused;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << " (" << m.what << ") threw "
                      << e.what();
      }
    }
  }
  EXPECT_GE(total, 2000);
  // Both outcomes occur: mutants reach the walk's checks and its end.
  EXPECT_GT(refused, total / 2);
  EXPECT_LT(refused, total);
}

// A restored clock need only be finite and non-negative, and the churn
// process catches its pending arrival up to the clock one mean gap (1/8 s
// here) at a time. Flipping the top exponent bit of the Helios-tree rig's
// clock (about 0.39 s) makes it about 7e307 s, so far ahead that adding a
// gap no longer moves the pending arrival and the catch-up never ends. The
// first round after the restore must refuse the clock.
TEST(HostileCheckpointTest, ClockFarBeyondTheRunIsRefused) {
  std::string payload =
      testing::make_rig(RigKind::kHeliosTree).pinned_payload();
  const std::size_t at = walk_layout(payload).clock;
  const std::uint64_t bits = get_le(payload, at, 8);
  double clock = 0.0;
  std::memcpy(&clock, &bits, sizeof clock);
  ASSERT_GT(clock, 0.1);
  ASSERT_LT(clock, 1.0);
  put_le(payload, at, bits ^ (std::uint64_t{1} << 62), 8);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "helios_checkpoint_clock_flip";
  {
    const std::string file = framed(payload);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(file.data(), static_cast<std::streamsize>(file.size()));
    ASSERT_TRUE(os.good()) << "cannot write " << path;
  }
  EXPECT_THROW(restore_and_step(RigKind::kHeliosTree, path.string()),
               fl::CheckpointError);
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

}  // namespace
}  // namespace helios
