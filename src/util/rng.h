// Deterministic, splittable random number generation.
//
// Every stochastic component in Helios (data synthesis, weight init, neuron
// rotation, partitioners, ...) draws from an explicitly seeded Rng so that
// experiments are reproducible bit-for-bit on a given build. The generator is
// xoshiro256++ seeded through splitmix64, which gives high-quality streams
// and cheap "forking" of statistically independent child generators.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace helios::util {

/// Complete serialized position of an Rng stream. Includes the Box-Muller
/// cache: normal() draws two uniforms and hands back the second on the next
/// call, so a generator snapshotted between the two would otherwise be
/// impossible to reconstruct mid-sequence from the xoshiro words alone.
struct RngState {
  std::uint64_t words[4] = {0, 0, 0, 0};
  double cached_normal = 0.0;
  bool has_cached_normal = false;

  friend bool operator==(const RngState& a, const RngState& b) {
    return a.words[0] == b.words[0] && a.words[1] == b.words[1] &&
           a.words[2] == b.words[2] && a.words[3] == b.words[3] &&
           a.cached_normal == b.cached_normal &&
           a.has_cached_normal == b.has_cached_normal;
  }
};

/// Deterministic pseudo-random generator (xoshiro256++).
///
/// Not thread-safe; give each logical actor (client, dataset, selector) its
/// own instance, typically via fork().
class Rng {
 public:
  /// Seeds the four-word state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  /// Standard normal via Box-Muller (caches the second draw).
  double normal();

  /// Normal with the given mean / standard deviation.
  double normal(double mean, double stddev);

  /// Advances the stream exactly as `n` normal() calls would: the same
  /// xoshiro steps and the same Box-Muller cache, bit for bit. Only the last
  /// pair drawn is evaluated (log/sqrt/sin/cos), because normal() leaves
  /// that pair's sine in the cache, consumed or not; every other pair costs
  /// two raw steps.
  void skip_normals(std::uint64_t n);

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::span<T> items) {
    if (items.size() < 2) return;
    for (std::size_t i = items.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_int(i + 1));
      using std::swap;
      swap(items[i], items[j]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n) (order randomized).
  /// Requires k <= n.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// A child generator whose stream is independent of this one.
  /// Forking with distinct `stream` values yields distinct children even
  /// without advancing the parent.
  Rng fork(std::uint64_t stream);

  /// Snapshot of the full stream position (checkpointing). A generator
  /// restored via from_state() produces the identical future sequence,
  /// including fork() children (fork reads state without advancing it).
  RngState state() const;
  /// Reconstructs a generator at exactly the snapshotted position.
  static Rng from_state(const RngState& s);

 private:
  /// One Box-Muller transform of two fresh uniforms: caches the sine and
  /// returns the cosine.
  double box_muller();

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace helios::util
