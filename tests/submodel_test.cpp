#include <gtest/gtest.h>

#include "fl/submodel.h"
#include "models/zoo.h"
#include "nn/layer.h"

namespace helios::fl {
namespace {

TEST(Submodel, LayerRangesTileNeuronIndex) {
  nn::Model m = models::make_lenet({1, 28, 28, 10}, 1);
  const auto ranges = layer_ranges(m);
  // conv1, conv2, fc1, fc2.
  ASSERT_EQ(ranges.size(), 4u);
  EXPECT_EQ(ranges[0].count, 6);
  EXPECT_EQ(ranges[1].count, 16);
  EXPECT_EQ(ranges[2].count, 120);
  EXPECT_EQ(ranges[3].count, 84);
  int cursor = 0;
  for (const auto& r : ranges) {
    EXPECT_EQ(r.begin, cursor);
    cursor += r.count;
  }
  EXPECT_EQ(cursor, m.neuron_total());
}

TEST(Submodel, BudgetsRoundAndFloorAtOne) {
  nn::Model m = models::make_lenet({1, 28, 28, 10}, 2);
  const auto ranges = layer_ranges(m);
  const auto half = layer_budgets(ranges, 0.5);
  EXPECT_EQ(half[0], 3);
  EXPECT_EQ(half[1], 8);
  EXPECT_EQ(half[2], 60);
  EXPECT_EQ(half[3], 42);
  const auto tiny = layer_budgets(ranges, 0.01);
  for (int b : tiny) EXPECT_GE(b, 1);
  EXPECT_THROW(layer_budgets(ranges, 0.0), std::invalid_argument);
  EXPECT_THROW(layer_budgets(ranges, 1.5), std::invalid_argument);
}

TEST(Submodel, RandomMaskMeetsBudgetsPerLayer) {
  nn::Model m = models::make_lenet({1, 28, 28, 10}, 3);
  util::Rng rng(4);
  const auto mask = random_volume_mask(m, 0.25, rng);
  EXPECT_EQ(mask.size(), static_cast<std::size_t>(m.neuron_total()));
  const auto ranges = layer_ranges(m);
  const auto budgets = layer_budgets(ranges, 0.25);
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    int active = 0;
    for (int j = 0; j < ranges[r].count; ++j) {
      active += mask[static_cast<std::size_t>(ranges[r].begin + j)];
    }
    EXPECT_EQ(active, budgets[r]);
  }
}

TEST(Submodel, RandomMasksVaryAcrossDraws) {
  nn::Model m = models::make_lenet({1, 28, 28, 10}, 5);
  util::Rng rng(6);
  const auto m1 = random_volume_mask(m, 0.5, rng);
  const auto m2 = random_volume_mask(m, 0.5, rng);
  EXPECT_NE(m1, m2);
  EXPECT_EQ(nn::active_count(m1), nn::active_count(m2));
}

TEST(Submodel, FullVolumeSelectsEverything) {
  nn::Model m = models::make_mlp({1, 4, 4, 3}, 7, 9);
  util::Rng rng(8);
  const auto mask = random_volume_mask(m, 1.0, rng);
  EXPECT_EQ(nn::active_count(mask), m.neuron_total());
}

}  // namespace
}  // namespace helios::fl
