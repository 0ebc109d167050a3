// Parameterized property sweeps over the library's core invariants.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/rotation.h"
#include "core/soft_training.h"
#include "data/partition.h"
#include "fl/submodel.h"
#include "models/zoo.h"
#include "nn/dense.h"
#include "tensor/ops.h"

namespace helios {
namespace {

// ---------------------------------------------------------------------------
// Property: for any volume, a random submodel mask meets every layer budget
// and total active count equals the budget sum.
// ---------------------------------------------------------------------------
class VolumeMaskProperty : public ::testing::TestWithParam<double> {};

TEST_P(VolumeMaskProperty, BudgetsExactAtEveryVolume) {
  const double volume = GetParam();
  nn::Model m = models::make_lenet({1, 16, 16, 6}, 3);
  util::Rng rng(17);
  const auto mask = fl::random_volume_mask(m, volume, rng);
  const auto ranges = fl::layer_ranges(m);
  const auto budgets = fl::layer_budgets(ranges, volume);
  int total = 0;
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    int active = 0;
    for (int j = 0; j < ranges[r].count; ++j) {
      active += mask[static_cast<std::size_t>(ranges[r].begin + j)];
    }
    EXPECT_EQ(active, budgets[r]) << "volume " << volume << " layer " << r;
    total += active;
  }
  EXPECT_EQ(total, fl::mask_active_count(mask));
}

INSTANTIATE_TEST_SUITE_P(Volumes, VolumeMaskProperty,
                         ::testing::Values(0.05, 0.1, 0.2, 0.25, 0.35, 0.5,
                                           0.66, 0.75, 0.9, 1.0));

// ---------------------------------------------------------------------------
// Property: soft-training masks meet budgets and include forced neurons at
// every (volume, ps) combination.
// ---------------------------------------------------------------------------
class SoftTrainingProperty
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SoftTrainingProperty, SelectionRespectsBudgetAndForcing) {
  const auto [volume, ps] = GetParam();
  nn::Model m = models::make_lenet({1, 12, 12, 4}, 5);
  core::SoftTrainerConfig cfg;
  cfg.keep_ratio = volume;
  cfg.ps = ps;
  cfg.seed = 23;
  core::SoftTrainer st(m, cfg);
  const std::vector<int> forced{0, 10};
  const auto mask = st.select_mask(forced);
  for (int f : forced) EXPECT_EQ(mask[static_cast<std::size_t>(f)], 1);
  const auto ranges = fl::layer_ranges(m);
  const auto budgets = fl::layer_budgets(ranges, volume);
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    int active = 0;
    for (int j = 0; j < ranges[r].count; ++j) {
      active += mask[static_cast<std::size_t>(ranges[r].begin + j)];
    }
    // Forced inclusions may overflow a layer's budget by at most the number
    // of forced neurons in that layer.
    int forced_here = 0;
    for (int f : forced) {
      forced_here += (f >= ranges[r].begin && f < ranges[r].begin + ranges[r].count);
    }
    EXPECT_GE(active, budgets[r]);
    EXPECT_LE(active, budgets[r] + forced_here);
  }
}

INSTANTIATE_TEST_SUITE_P(
    VolumePsGrid, SoftTrainingProperty,
    ::testing::Combine(::testing::Values(0.1, 0.25, 0.5, 0.8),
                       ::testing::Values(0.05, 0.1, 0.5, 1.0)));

// ---------------------------------------------------------------------------
// Property: partitioners produce exact partitions for any client count.
// ---------------------------------------------------------------------------
class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PartitionProperty, AllSchemesExact) {
  const auto [samples, clients] = GetParam();
  util::Rng rng(29);
  std::vector<int> labels(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    labels[i] = static_cast<int>(rng.uniform_int(10));
  }
  EXPECT_TRUE(data::is_exact_partition(
      data::partition_iid(samples, clients, rng), samples));
  EXPECT_TRUE(data::is_exact_partition(
      data::partition_dirichlet(labels, clients, 10, 0.5, rng), samples));
  if (samples >= clients * 2) {
    EXPECT_TRUE(data::is_exact_partition(
        data::partition_shards(labels, clients, 2, rng), samples));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SampleClientGrid, PartitionProperty,
    ::testing::Combine(::testing::Values<std::size_t>(16, 100, 257, 1000),
                       ::testing::Values<std::size_t>(1, 2, 4, 7)));

// ---------------------------------------------------------------------------
// Property: rotation threshold formula across budgets.
// ---------------------------------------------------------------------------
class RotationProperty : public ::testing::TestWithParam<int> {};

TEST_P(RotationProperty, ThresholdFormula) {
  const int budget = GetParam();
  const int m = 120;
  core::RotationRegulator reg(m, budget);
  EXPECT_DOUBLE_EQ(reg.threshold(), 1.0 + static_cast<double>(m) / budget);
}

INSTANTIATE_TEST_SUITE_P(Budgets, RotationProperty,
                         ::testing::Values(1, 5, 12, 40, 120));

// ---------------------------------------------------------------------------
// Property: masked dense forward equals full forward on active units and is
// zero on inactive units, for a sweep of mask densities.
// ---------------------------------------------------------------------------
class MaskedDenseProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaskedDenseProperty, ForwardConsistency) {
  const int keep_every = GetParam();
  util::Rng rng(31);
  nn::Dense layer(9, 12, &rng);
  tensor::Tensor x = tensor::Tensor::randn({4, 9}, rng);
  const tensor::Tensor full = layer.forward(x, false);
  std::vector<std::uint8_t> mask(12, 0);
  for (int j = 0; j < 12; j += keep_every) mask[static_cast<std::size_t>(j)] = 1;
  layer.set_mask(mask);
  const tensor::Tensor masked = layer.forward(x, false);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 12; ++j) {
      if (mask[static_cast<std::size_t>(j)]) {
        EXPECT_NEAR(masked.at(i, j), full.at(i, j), 1e-6F);
      } else {
        EXPECT_EQ(masked.at(i, j), 0.0F);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, MaskedDenseProperty,
                         ::testing::Values(1, 2, 3, 4, 6, 12));

// ---------------------------------------------------------------------------
// Property: model FLOPs scale monotonically with volume.
// ---------------------------------------------------------------------------
class FlopsMonotoneProperty : public ::testing::TestWithParam<double> {};

TEST_P(FlopsMonotoneProperty, MaskedFlopsBelowFull) {
  const double volume = GetParam();
  nn::Model m = models::make_lenet({1, 16, 16, 6}, 7);
  const double full = m.forward_flops_per_sample();
  util::Rng rng(37);
  m.set_neuron_mask(fl::random_volume_mask(m, volume, rng));
  const double masked = m.forward_flops_per_sample();
  EXPECT_LE(masked, full);
  if (volume < 0.9) {
    EXPECT_LT(masked, full);
  }
  // FLOPs shrink at least roughly with the volume for conv/dense stacks
  // (first-layer input channels stay dense, so the bound is loose).
  EXPECT_GT(masked, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Volumes, FlopsMonotoneProperty,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace helios
