// Cross-commit pins for per-device data shards.
//
// A population device's shard is synthesized from its own stream and, with
// label skew, filtered to the classes it keeps: the first shard_samples
// matches of a shard_samples * classes / k + 2 * classes candidate pool, or
// the pool head when no candidate matches. This suite pins FNV-1a digests of
// the sample count, labels and image bytes of:
//
//   * eager mobile_longtail shards at several indices, capped 160-sample
//     shards included;
//   * shards of a 1x15x15 task (an even normal count per candidate), a
//     3-channel task and a one-class skew;
//   * the no-match fallback (a label set that never occurs);
//   * lazy shards, which must equal the eager ones once materialized.
//
// The constants were recorded against commit 5a25a92, before shard
// synthesis drew each candidate's label first and skipped the draws of the
// candidates it rejects. They are never re-recorded to make a change pass: a
// mismatch means a shard's bytes changed. A mismatch prints the new value.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/synthetic.h"
#include "fl/fleet.h"
#include "models/zoo.h"
#include "sim/population.h"
#include "test_support.h"
#include "util/rng.h"

namespace helios {
namespace {

/// FNV-1a over the sample count, the labels and the image floats.
std::uint64_t shard_digest(const data::Dataset& d) {
  std::vector<std::uint8_t> bytes;
  auto append = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  const std::int32_t n = d.size();
  append(&n, sizeof n);
  append(d.labels.data(), d.labels.size() * sizeof(int));
  append(d.images.data(), d.images.numel() * sizeof(float));
  return testing::fnv1a(bytes);
}

/// An empty fleet for `pop`'s task; shards arrive through sim::add_device,
/// the population's own entry point, so any index can be pinned without
/// building the devices before it.
fl::Fleet empty_fleet(const sim::PopulationGenerator& pop) {
  const sim::PopulationConfig& c = pop.config();
  return fl::Fleet(c.model, testing::tiny_dataset(8, c.classes, c.channels,
                                                  c.hw),
                   c.seed);
}

struct Pinned {
  int index;
  int samples;
  std::uint64_t digest;
};

void expect_pinned(const sim::PopulationConfig& cfg,
                   const std::vector<Pinned>& pinned, const char* name) {
  const sim::PopulationGenerator pop(cfg);
  fl::Fleet fleet = empty_fleet(pop);
  for (const Pinned& p : pinned) {
    const data::Dataset& d = sim::add_device(fleet, pop, p.index).dataset();
    EXPECT_EQ(d.size(), p.samples) << name << " device " << p.index;
    EXPECT_EQ(shard_digest(d), p.digest)
        << name << " device " << p.index << " 0x" << std::hex
        << shard_digest(d);
  }
}

TEST(ShardDigestTest, EagerLongtailShardsAreByteStable) {
  const sim::PopulationConfig cfg = sim::mobile_longtail(32768);
  const sim::PopulationGenerator pop(cfg);
  // 25 and 47 draw capped shards: the Pareto tail hits max_shard_samples.
  // 47's pool holds only 149 matches, so its shard comes out short.
  for (int capped : {25, 47}) {
    ASSERT_EQ(pop.device(capped).shard_samples, cfg.max_shard_samples);
  }
  expect_pinned(cfg,
                {{0, 41, 0x48484a451e198569ULL},
                 {1, 38, 0x116e742f146e7989ULL},
                 {25, 160, 0xc4c54ba2051c5725ULL},
                 {47, 149, 0xe16912dfa8c79eb7ULL},
                 {17, 43, 0x9774d33924dce3f0ULL},
                 {4095, 38, 0xaa7afcb23ee347c4ULL},
                 {32767, 54, 0x962ec7750918603aULL}},
                "mobile_longtail");
}

TEST(ShardDigestTest, OtherGeometriesAreByteStable) {
  // 1x15x15: 1 + 16 + 225 = 242 normals per candidate, an even count, so
  // a candidate never leaves a cached normal to the next one.
  sim::PopulationConfig odd = sim::mobile_longtail(64);
  odd.hw = 15;
  odd.model = models::mlp_spec({1, 15, 15, 10}, 16);
  expect_pinned(odd,
                {{0, 41, 0x46a36c13b53e24e9ULL}, {5, 32, 0x3f97f169979388aeULL}},
                "1x15x15");

  sim::PopulationConfig rgb = sim::mobile_longtail(64);
  rgb.channels = 3;
  rgb.hw = 12;
  rgb.classes_per_device = 3;
  rgb.model = models::mlp_spec({3, 12, 12, 10}, 16);
  expect_pinned(rgb,
                {{0, 41, 0x3b6abc265c76c6e0ULL}, {9, 34, 0x234a5c179edd4859ULL}},
                "3x12x12");

  sim::PopulationConfig one = sim::mobile_longtail(64);
  one.classes_per_device = 1;
  one.samples_per_client = 4;
  one.max_shard_samples = 12;
  expect_pinned(one,
                {{0, 5, 0xb1cbbd1c0509b2fcULL}, {2, 7, 0xb795f53dea07fbc7ULL}},
                "one class");
}

TEST(ShardDigestTest, NoMatchFallsBackToPoolHead) {
  data::SyntheticSpec spec;
  spec.channels = 1;
  spec.height = spec.width = 16;
  spec.classes = 10;
  spec.noise = 0.5F;
  const int never[] = {10, -1};  // labels outside [0, classes)
  // keep = 12 from a pool of 80 (12 * 10 / 2 + 2 * 10), then from a pool of
  // 5: the head is min(pool, keep) samples. Pinned as {pool, head, digest}.
  const Pinned pinned[] = {{80, 12, 0xe4f8f62fe806f59aULL},
                           {5, 5, 0x12e7bfd96680e69dULL}};
  for (const Pinned& p : pinned) {
    spec.samples = p.index;
    const data::Dataset head = data::make_synthetic_filtered(
        spec, util::Rng(2026).fork(0xDA7A).fork(5), never, 12);
    EXPECT_EQ(head.size(), p.samples) << p.index;
    EXPECT_EQ(shard_digest(head), p.digest)
        << "pool " << p.index << " 0x" << std::hex << shard_digest(head);
  }
}

/// The whole-pool filter the label-first synthesis replaced: synthesize
/// every candidate, keep the first `keep` matches, else the pool head.
data::Dataset filter_whole_pool(const data::SyntheticSpec& spec,
                                util::Rng rng, const std::vector<int>& labels,
                                int keep) {
  const data::Dataset pool = data::make_synthetic(spec, rng);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < pool.labels.size(); ++i) {
    if (std::find(labels.begin(), labels.end(), pool.labels[i]) !=
        labels.end()) {
      rows.push_back(i);
    }
    if (rows.size() >= static_cast<std::size_t>(keep)) break;
  }
  if (rows.empty()) {
    for (std::size_t i = 0;
         i < std::min(pool.labels.size(), static_cast<std::size_t>(keep));
         ++i) {
      rows.push_back(i);
    }
  }
  return data::subset(pool, rows);
}

TEST(ShardDigestTest, FilteredSynthesisEqualsWholePoolFilter) {
  struct Geometry {
    int channels, hw, grid;
  };
  // 1x16x16 and 3x12x12 draw an odd normal count per candidate (273, 481);
  // 1x15x15 and 1x10x10 on a 5x5 grid an even one (242, 126).
  const Geometry geometries[] = {{1, 16, 4}, {1, 15, 4}, {3, 12, 4},
                                 {1, 10, 5}};
  const std::vector<std::vector<int>> label_sets = {
      {3}, {0, 7}, {1, 4, 9}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {12}};
  std::uint64_t stream = 0;
  for (const Geometry& g : geometries) {
    data::SyntheticSpec spec;
    spec.channels = g.channels;
    spec.height = spec.width = g.hw;
    spec.prototype_grid = g.grid;
    spec.classes = 10;
    for (const std::vector<int>& labels : label_sets) {
      for (const int keep : {1, 7, 40}) {
        for (const int pool : {3, keep * 5 + 20}) {
          spec.samples = pool;
          const util::Rng rng = util::Rng(99).fork(++stream);
          const data::Dataset want = filter_whole_pool(spec, rng, labels, keep);
          const data::Dataset got =
              data::make_synthetic_filtered(spec, rng, labels, keep);
          ASSERT_EQ(got.size(), want.size()) << stream;
          EXPECT_EQ(got.num_classes, want.num_classes) << stream;
          EXPECT_TRUE(testing::bitwise_equal(got.labels, want.labels))
              << stream;
          EXPECT_TRUE(
              testing::bitwise_equal(got.images.flat(), want.images.flat()))
              << stream;
        }
      }
    }
  }
}

TEST(ShardDigestTest, LazyShardsEqualEagerOnes) {
  sim::PopulationConfig cfg = sim::mobile_longtail(32768);
  const sim::PopulationGenerator eager_pop(cfg);
  cfg.lazy_data = true;
  const sim::PopulationGenerator lazy_pop(cfg);
  fl::Fleet eager = empty_fleet(eager_pop);
  fl::Fleet lazy = empty_fleet(lazy_pop);
  const std::vector<float>& params = lazy.server().global();
  const std::vector<float>& buffers = lazy.server().global_buffers();
  for (int index : {0, 3, 4095}) {
    const data::Dataset& want =
        sim::add_device(eager, eager_pop, index).dataset();
    fl::Client& client = sim::add_device(lazy, lazy_pop, index);
    EXPECT_EQ(client.dataset().size(), 0) << index;
    client.run_cycle(params, buffers, {});  // materializes the shard
    const data::Dataset& got = client.dataset();
    EXPECT_TRUE(testing::bitwise_equal(got.labels, want.labels)) << index;
    EXPECT_TRUE(testing::bitwise_equal(got.images.flat(), want.images.flat()))
        << index;
  }
}

}  // namespace
}  // namespace helios
