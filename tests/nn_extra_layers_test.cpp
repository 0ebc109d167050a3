// Tests for the layers beyond the LeNet/AlexNet set: GroupNorm,
// DepthwiseConv2d and the MobileNet-lite model built from them.
#include <gtest/gtest.h>

#include "models/zoo.h"
#include "nn/depthwise.h"
#include "nn/groupnorm.h"
#include "test_support.h"

namespace helios::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;
using testing::gradcheck_layer;

TEST(GradCheckExtra, GroupNorm) {
  util::Rng rng(71);
  GroupNorm2d layer(4, 3, 3, 2);
  Tensor x = Tensor::randn({3, 4, 3, 3}, rng);
  EXPECT_EQ(gradcheck_layer(layer, x, rng, 24, 8e-2), 0);
}

TEST(GradCheckExtra, GroupNormMasked) {
  util::Rng rng(72);
  GroupNorm2d layer(4, 3, 3, 2);
  const std::vector<std::uint8_t> mask{1, 0, 1, 1};
  layer.set_mask(mask);
  Tensor x = Tensor::randn({3, 4, 3, 3}, rng);
  EXPECT_EQ(gradcheck_layer(layer, x, rng, 24, 8e-2), 0);
}

TEST(GradCheckExtra, DepthwiseConv) {
  util::Rng rng(73);
  DepthwiseConv2d layer(3, 6, 6, 3, 1, 1, &rng);
  Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
  EXPECT_EQ(gradcheck_layer(layer, x, rng), 0);
}

TEST(GradCheckExtra, DepthwiseConvStridedMasked) {
  util::Rng rng(74);
  DepthwiseConv2d layer(4, 8, 8, 3, 2, 1, &rng);
  const std::vector<std::uint8_t> mask{1, 0, 1, 0};
  layer.set_mask(mask);
  Tensor x = Tensor::randn({2, 4, 8, 8}, rng);
  EXPECT_EQ(gradcheck_layer(layer, x, rng), 0);
}

TEST(GroupNorm, NormalizesPerSampleGroups) {
  util::Rng rng(77);
  GroupNorm2d gn(4, 4, 4, 2);
  Tensor x = Tensor::randn({2, 4, 4, 4}, rng, 3.0F);
  Tensor y = gn.forward(x, true);
  // Each (sample, group) slice of the output is ~zero-mean unit-variance.
  for (int i = 0; i < 2; ++i) {
    for (int g = 0; g < 2; ++g) {
      double s = 0.0, s2 = 0.0;
      for (int k = 0; k < 2; ++k) {
        const int c = g * 2 + k;
        for (int h = 0; h < 4; ++h) {
          for (int w = 0; w < 4; ++w) {
            const double v = y.at(i, c, h, w);
            s += v;
            s2 += v * v;
          }
        }
      }
      EXPECT_NEAR(s / 32.0, 0.0, 1e-4);
      EXPECT_NEAR(s2 / 32.0, 1.0, 2e-2);
    }
  }
}

TEST(GroupNorm, HasNoBuffers) {
  GroupNorm2d gn(4, 2, 2, 2);
  EXPECT_TRUE(gn.buffers().empty());
  EXPECT_TRUE(gn.mask_follower());
}

TEST(GroupNorm, RejectsBadGroups) {
  EXPECT_THROW(GroupNorm2d(4, 2, 2, 3), std::invalid_argument);
  EXPECT_THROW(GroupNorm2d(4, 2, 2, 0), std::invalid_argument);
}

TEST(GroupNorm, MaskedChannelsZeroAndExcludedFromStats) {
  util::Rng rng(78);
  GroupNorm2d gn(2, 2, 2, 1);
  const std::vector<std::uint8_t> mask{1, 0};
  gn.set_mask(mask);
  Tensor x = Tensor::randn({2, 2, 2, 2}, rng);
  Tensor y = gn.forward(x, true);
  for (int i = 0; i < 2; ++i) {
    for (int p = 0; p < 4; ++p) {
      EXPECT_EQ(y.at(i, 1, p / 2, p % 2), 0.0F);
    }
    // The active channel normalizes over itself only: mean ~0 across its 4
    // elements.
    double s = 0.0;
    for (int p = 0; p < 4; ++p) s += y.at(i, 0, p / 2, p % 2);
    EXPECT_NEAR(s / 4.0, 0.0, 1e-4);
  }
}

TEST(Depthwise, MaskedChannelOutputsZero) {
  util::Rng rng(81);
  DepthwiseConv2d dw(3, 5, 5, 3, 1, 1, &rng);
  const std::vector<std::uint8_t> mask{0, 1, 1};
  dw.set_mask(mask);
  Tensor x = Tensor::randn({1, 3, 5, 5}, rng);
  Tensor y = dw.forward(x, false);
  for (int p = 0; p < 25; ++p) {
    EXPECT_EQ(y.at(0, 0, p / 5, p % 5), 0.0F);
  }
  EXPECT_NE(y.at(0, 1, 2, 2), 0.0F);
}

TEST(Depthwise, FlopsScaleWithActiveChannels) {
  util::Rng rng(82);
  DepthwiseConv2d dw(4, 8, 8, 3, 1, 1, &rng);
  const double full = dw.forward_flops_per_sample();
  const std::vector<std::uint8_t> mask{1, 0, 0, 0};
  dw.set_mask(mask);
  EXPECT_NEAR(dw.forward_flops_per_sample() / full, 0.25, 1e-9);
}

TEST(MobileNet, BuildsAndClassifies) {
  nn::Model m = models::make_mobilenet_lite({3, 16, 16, 10}, 86, 8);
  util::Rng rng(87);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  EXPECT_EQ(m.forward(x, true).shape(), (Shape{2, 10}));
  EXPECT_TRUE(m.buffers_flat().empty());  // GroupNorm: nothing to federate
}

TEST(MobileNet, NeuronsAreSeparableChannels) {
  nn::Model m = models::make_mobilenet_lite({3, 16, 16, 10}, 88, 8);
  // Leaders: stem (8) + 4 pointwise convs (16, 16, 32, 32) = 104.
  EXPECT_EQ(m.neuron_total(), 8 + 16 + 16 + 32 + 32);
  // A stem neuron owns: conv filter (3*9=27) + bias + stem GN pair +
  // following depthwise taps (9) + dw bias + dw GN pair = 27+1+2+9+1+2 = 42.
  EXPECT_EQ(m.neurons()[0].param_count(), 42u);
}

TEST(MobileNet, MaskingWorksEndToEnd) {
  nn::Model m = models::make_mobilenet_lite({3, 16, 16, 10}, 89, 8);
  const double full_flops = m.forward_flops_per_sample();
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(m.neuron_total()), 1);
  for (std::size_t j = 0; j < mask.size(); j += 2) mask[j] = 0;
  m.set_neuron_mask(mask);
  util::Rng rng(90);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  EXPECT_EQ(m.forward(x, true).shape(), (Shape{2, 10}));
  EXPECT_LT(m.forward_flops_per_sample(), 0.8 * full_flops);
}

TEST(MobileNet, RejectsBadWidth) {
  EXPECT_THROW(models::make_mobilenet_lite({3, 16, 16, 10}, 1, 6),
               std::invalid_argument);
}

}  // namespace
}  // namespace helios::nn
