#include "util/rng.h"

#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace helios::util {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  assert(n > 0);
  // Rejection sampling to remove modulo bias.
  const std::uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::box_muller() {
  // u1 in (0,1] to avoid log(0).
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  return box_muller();
}

void Rng::skip_normals(std::uint64_t n) {
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    --n;
  }
  if (n == 0) return;
  // n uncached normals are ceil(n / 2) pairs of two uniforms each.
  for (std::uint64_t pair = 1; pair < (n + 1) / 2; ++pair) {
    next_u64();
    next_u64();
  }
  box_muller();
  // An even count also consumes the last pair's sine.
  has_cached_normal_ = n % 2 == 1;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) pool[i] = i;
  // Partial Fisher-Yates: the first k slots end up as the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_int(n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

Rng Rng::fork(std::uint64_t stream) {
  // Mix the parent's state with the stream id so child streams are
  // decorrelated from each other and from the parent.
  std::uint64_t s = state_[0] ^ rotl(state_[2], 13) ^ (stream * 0xD6E8FEB86659FD93ULL + 1);
  return Rng(splitmix64(s));
}

RngState Rng::state() const {
  RngState s;
  for (int i = 0; i < 4; ++i) s.words[i] = state_[i];
  s.cached_normal = cached_normal_;
  s.has_cached_normal = has_cached_normal_;
  return s;
}

Rng Rng::from_state(const RngState& s) {
  Rng rng(0);
  for (int i = 0; i < 4; ++i) rng.state_[i] = s.words[i];
  rng.cached_normal_ = s.cached_normal;
  rng.has_cached_normal_ = s.has_cached_normal;
  return rng;
}

}  // namespace helios::util
