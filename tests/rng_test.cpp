#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>

#include "util/rng.h"

namespace helios::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(8);
  double s = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) s += rng.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_int(17), 17u);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(10);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 50000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.03);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParams) {
  Rng rng(12);
  const int n = 20000;
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += rng.normal(3.0, 0.5);
  EXPECT_NEAR(s / n, 3.0, 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(14);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleWithoutReplacementUnique) {
  Rng rng(15);
  auto s = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::set<std::size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (auto i : s) EXPECT_LT(i, 50u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng rng(16);
  auto s = rng.sample_without_replacement(10, 10);
  std::sort(s.begin(), s.end());
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, SampleThrowsWhenKExceedsN) {
  Rng rng(17);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent(20);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1(21), p2(21);
  Rng a = p1.fork(5);
  Rng b = p2.fork(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// skip_normals(n) must leave the stream exactly where n normal() calls do:
// the xoshiro words, the cache flag, and the cached value bit for bit (a
// consumed sine stays in the slot, and checkpoints serialize it).
TEST(Rng, SkipNormalsLeavesTheStateOfDrawingThem) {
  for (const bool cached : {false, true}) {
    for (std::uint64_t n = 0; n <= 600; ++n) {
      Rng drawn(1000 + n);
      if (cached) drawn.normal();
      ASSERT_EQ(drawn.state().has_cached_normal, cached);
      Rng skipped = drawn;
      for (std::uint64_t i = 0; i < n; ++i) drawn.normal();
      skipped.skip_normals(n);

      const RngState a = drawn.state();
      const RngState b = skipped.state();
      for (int w = 0; w < 4; ++w) {
        ASSERT_EQ(a.words[w], b.words[w]) << "n=" << n << " cached=" << cached;
      }
      ASSERT_EQ(a.has_cached_normal, b.has_cached_normal) << "n=" << n;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(a.cached_normal),
                std::bit_cast<std::uint64_t>(b.cached_normal))
          << "n=" << n << " cached=" << cached;

      for (std::uint64_t k = 0; k < 64; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(drawn.normal()),
                  std::bit_cast<std::uint64_t>(skipped.normal()))
            << "n=" << n << " draw " << k;
        ASSERT_EQ(drawn.uniform_int(10 + k), skipped.uniform_int(10 + k))
            << "n=" << n << " draw " << k;
      }
    }
  }
}

}  // namespace
}  // namespace helios::util
