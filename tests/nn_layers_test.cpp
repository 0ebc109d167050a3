// Behavioural layer tests (shape, masking semantics, caching, FLOPs);
// gradient correctness lives in gradcheck_test.cpp.
#include <gtest/gtest.h>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/pool.h"
#include "nn/residual.h"

namespace helios::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Dense, ForwardShapeAndBias) {
  util::Rng rng(1);
  Dense d(3, 4, &rng);
  Tensor x({2, 3});
  Tensor y = d.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 4}));
  // Zero input -> output equals bias (zero-initialized).
  for (float v : y.flat()) EXPECT_EQ(v, 0.0F);
}

TEST(Dense, MaskedUnitsProduceZero) {
  util::Rng rng(2);
  Dense d(5, 6, &rng);
  const std::vector<std::uint8_t> mask{1, 0, 1, 0, 1, 0};
  d.set_mask(mask);
  Tensor x = Tensor::randn({3, 5}, rng);
  Tensor y = d.forward(x, false);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(y.at(i, 1), 0.0F);
    EXPECT_EQ(y.at(i, 3), 0.0F);
    EXPECT_EQ(y.at(i, 5), 0.0F);
    EXPECT_NE(y.at(i, 0), 0.0F);
  }
}

TEST(Dense, MaskedForwardMatchesDenseOnActiveUnits) {
  util::Rng rng(3);
  Dense d(4, 5, &rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor full = d.forward(x, false);
  const std::vector<std::uint8_t> mask{1, 1, 0, 1, 1};
  d.set_mask(mask);
  Tensor masked = d.forward(x, false);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 5; ++j) {
      if (mask[static_cast<std::size_t>(j)]) {
        EXPECT_NEAR(masked.at(i, j), full.at(i, j), 1e-6F);
      } else {
        EXPECT_EQ(masked.at(i, j), 0.0F);
      }
    }
  }
}

TEST(Dense, MaskedBackwardLeavesFrozenGradZero) {
  util::Rng rng(4);
  Dense d(3, 4, &rng);
  const std::vector<std::uint8_t> mask{0, 1, 1, 0};
  d.set_mask(mask);
  Tensor x = Tensor::randn({2, 3}, rng);
  d.zero_grad();
  d.forward(x, true);
  Tensor g = Tensor::randn({2, 4}, rng);
  d.backward(g);
  auto grads = d.grads();
  for (int in = 0; in < 3; ++in) {
    EXPECT_EQ(grads[0]->at(0, in), 0.0F);  // row 0 frozen
    EXPECT_EQ(grads[0]->at(3, in), 0.0F);  // row 3 frozen
  }
  EXPECT_EQ(grads[1]->at(0), 0.0F);
  EXPECT_EQ(grads[1]->at(3), 0.0F);
  EXPECT_NE(grads[1]->at(1), 0.0F);
}

TEST(Dense, NonMaskableHeadRejectsMask) {
  util::Rng rng(5);
  Dense head(4, 3, &rng, /*maskable=*/false);
  EXPECT_EQ(head.neuron_count(), 0);
  const std::vector<std::uint8_t> mask{1, 1, 0};
  EXPECT_THROW(head.set_mask(mask), std::logic_error);
}

TEST(Dense, NeuronSlicesCoverRowAndBias) {
  util::Rng rng(6);
  Dense d(7, 3, &rng);
  const auto slices = d.neuron_slices(2);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].param_index, 0);
  EXPECT_EQ(slices[0].offset, 14u);
  EXPECT_EQ(slices[0].length, 7u);
  EXPECT_EQ(slices[1].param_index, 1);
  EXPECT_EQ(slices[1].offset, 2u);
  EXPECT_EQ(slices[1].length, 1u);
  EXPECT_THROW(d.neuron_slices(3), std::out_of_range);
}

TEST(Dense, MaskReducesFlops) {
  util::Rng rng(7);
  Dense d(10, 8, &rng);
  const double full = d.forward_flops_per_sample();
  const std::vector<std::uint8_t> mask{1, 1, 0, 0, 0, 0, 0, 0};
  d.set_mask(mask);
  EXPECT_NEAR(d.forward_flops_per_sample(), full * 0.25, 1.0);
  d.clear_mask();
  EXPECT_EQ(d.forward_flops_per_sample(), full);
}

TEST(Conv2d, OutputGeometry) {
  util::Rng rng(8);
  Conv2d c(3, 8, 8, 4, 3, 2, 1, &rng);
  EXPECT_EQ(c.out_h(), 4);
  EXPECT_EQ(c.out_w(), 4);
  Tensor x({2, 3, 8, 8});
  Tensor y = c.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 4, 4}));
}

TEST(Conv2d, MaskedChannelsAreZero) {
  util::Rng rng(9);
  Conv2d c(2, 5, 5, 3, 3, 1, 1, &rng);
  const std::vector<std::uint8_t> mask{0, 1, 0};
  c.set_mask(mask);
  Tensor x = Tensor::randn({1, 2, 5, 5}, rng);
  Tensor y = c.forward(x, false);
  for (int p = 0; p < 25; ++p) {
    EXPECT_EQ(y.flat()[static_cast<std::size_t>(p)], 0.0F);           // ch 0
    EXPECT_EQ(y.flat()[static_cast<std::size_t>(50 + p)], 0.0F);      // ch 2
  }
}

TEST(Conv2d, MaskedMatchesFullOnActiveChannels) {
  util::Rng rng(10);
  Conv2d c(2, 6, 6, 4, 3, 1, 0, &rng);
  Tensor x = Tensor::randn({2, 2, 6, 6}, rng);
  Tensor full = c.forward(x, false);
  const std::vector<std::uint8_t> mask{1, 0, 0, 1};
  c.set_mask(mask);
  Tensor masked = c.forward(x, false);
  const int plane = c.out_h() * c.out_w();
  for (int n = 0; n < 2; ++n) {
    for (int oc : {0, 3}) {
      for (int p = 0; p < plane; ++p) {
        EXPECT_NEAR(masked.at(n, oc, p / c.out_w(), p % c.out_w()),
                    full.at(n, oc, p / c.out_w(), p % c.out_w()), 1e-5F);
      }
    }
  }
}

TEST(Conv2d, RejectsBadGeometry) {
  util::Rng rng(11);
  EXPECT_THROW(Conv2d(0, 5, 5, 3, 3, 1, 1, &rng), std::invalid_argument);
  EXPECT_THROW(Conv2d(1, 2, 2, 3, 5, 1, 0, &rng), std::invalid_argument);
}

TEST(Conv2d, FlopsScaleWithActiveFilters) {
  util::Rng rng(12);
  Conv2d c(2, 8, 8, 4, 3, 1, 1, &rng);
  const double full = c.forward_flops_per_sample();
  const std::vector<std::uint8_t> mask{1, 0, 0, 0};
  c.set_mask(mask);
  EXPECT_NEAR(c.forward_flops_per_sample() / full, 0.25, 1e-9);
}

TEST(ReLU, ClampsNegative) {
  ReLU r;
  Tensor x({1, 4}, {-1.0F, 0.0F, 2.0F, -3.0F});
  Tensor y = r.forward(x, false);
  EXPECT_TRUE(y.allclose(Tensor({1, 4}, {0.0F, 0.0F, 2.0F, 0.0F})));
}

TEST(ReLU, BackwardUsesForwardSign) {
  ReLU r;
  Tensor x({1, 3}, {-1.0F, 1.0F, 2.0F});
  r.forward(x, true);
  Tensor g({1, 3}, {5.0F, 5.0F, 5.0F});
  Tensor dx = r.backward(g);
  EXPECT_TRUE(dx.allclose(Tensor({1, 3}, {0.0F, 5.0F, 5.0F})));
}

TEST(MaxPool, SelectsMaxima) {
  MaxPool2d p(1, 4, 4, 2, 2);
  Tensor x({1, 1, 4, 4}, {1, 2, 3, 4,
                          5, 6, 7, 8,
                          9, 10, 11, 12,
                          13, 14, 15, 16});
  Tensor y = p.forward(x, false);
  EXPECT_TRUE(y.allclose(Tensor({1, 1, 2, 2}, {6, 8, 14, 16})));
}

TEST(MaxPool, BackwardRoutesToArgmax) {
  MaxPool2d p(1, 2, 2, 2, 2);
  Tensor x({1, 1, 2, 2}, {1, 9, 2, 3});
  p.forward(x, true);
  Tensor g({1, 1, 1, 1}, {4.0F});
  Tensor dx = p.backward(g);
  EXPECT_TRUE(dx.allclose(Tensor({1, 1, 2, 2}, {0, 4, 0, 0})));
}

TEST(GlobalAvgPool, AveragesPlane) {
  GlobalAvgPool p(2, 2, 2);
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = p.forward(x, false);
  EXPECT_NEAR(y.at(0, 0), 2.5F, 1e-6F);
  EXPECT_NEAR(y.at(0, 1), 10.0F, 1e-6F);
}

TEST(Flatten, RoundTrip) {
  Flatten f(2, 3, 4);
  util::Rng rng(13);
  Tensor x = Tensor::randn({5, 2, 3, 4}, rng);
  Tensor y = f.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{5, 24}));
  Tensor back = f.backward(y);
  EXPECT_TRUE(back.allclose(x));
}

TEST(BatchNorm, NormalizesBatchStatistics) {
  util::Rng rng(14);
  BatchNorm2d bn(2, 4, 4);
  Tensor x = Tensor::randn({8, 2, 4, 4}, rng, 3.0F);
  Tensor y = bn.forward(x, true);
  // Each channel of the output should be ~zero-mean unit-variance.
  for (int c = 0; c < 2; ++c) {
    double s = 0.0, s2 = 0.0;
    for (int n = 0; n < 8; ++n) {
      for (int h = 0; h < 4; ++h) {
        for (int w = 0; w < 4; ++w) {
          const double v = y.at(n, c, h, w);
          s += v;
          s2 += v * v;
        }
      }
    }
    const double count = 8 * 16;
    EXPECT_NEAR(s / count, 0.0, 1e-4);
    EXPECT_NEAR(s2 / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm, EvalUsesRunningStats) {
  util::Rng rng(15);
  BatchNorm2d bn(1, 2, 2);
  // Train on data with mean 5 to move the running stats; with momentum 0.1
  // the residual of the initial value decays as 0.9^n.
  Tensor x = Tensor::full({4, 1, 2, 2}, 5.0F);
  for (int i = 0; i < 100; ++i) bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean().at(0), 5.0F, 0.01F);
  // Eval-mode output of the same constant input is near zero.
  Tensor y = bn.forward(x, false);
  EXPECT_NEAR(y.at(0, 0, 0, 0), 0.0F, 0.5F);
}

TEST(BatchNorm, MaskedChannelOutputsZero) {
  util::Rng rng(16);
  BatchNorm2d bn(2, 2, 2);
  const std::vector<std::uint8_t> mask{0, 1};
  bn.set_mask(mask);
  Tensor x = Tensor::randn({3, 2, 2, 2}, rng);
  Tensor y = bn.forward(x, true);
  for (int n = 0; n < 3; ++n) {
    for (int p = 0; p < 4; ++p) {
      EXPECT_EQ(y.at(n, 0, p / 2, p % 2), 0.0F);
    }
  }
  EXPECT_TRUE(bn.mask_follower());
}

TEST(Residual, IdentitySkipPreservesShape) {
  util::Rng rng(17);
  ResidualBlock block(4, 6, 6, 4, 1, &rng);
  Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Residual, ProjectionChangesShape) {
  util::Rng rng(18);
  ResidualBlock block(4, 6, 6, 8, 2, &rng);
  Tensor x = Tensor::randn({2, 4, 6, 6}, rng);
  Tensor y = block.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 8, 3, 3}));
}

TEST(Residual, LeavesExposeSublayers) {
  util::Rng rng(19);
  ResidualBlock block(4, 6, 6, 8, 2, &rng);
  std::vector<Layer*> leaves;
  block.append_leaves(leaves);
  // conv1, bn1, relu1, conv2, bn2, proj, projbn, relu2
  EXPECT_EQ(leaves.size(), 8u);
  EXPECT_EQ(block.follower_links().size(), 2u);
}

}  // namespace
}  // namespace helios::nn
