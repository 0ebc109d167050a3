#include <gtest/gtest.h>

#include <cmath>

#include "tensor/ops.h"
#include "util/rng.h"

namespace helios::tensor {
namespace {

Tensor mat(std::initializer_list<int> shape, std::initializer_list<float> v) {
  return Tensor(Shape(shape), std::vector<float>(v));
}

TEST(Elementwise, ShapeMismatchThrows) {
  Tensor a({2, 2});
  Tensor b({4});
  EXPECT_THROW(add_inplace(a, b), std::invalid_argument);
}

TEST(Matmul, KnownProduct) {
  Tensor a = mat({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = mat({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(c.allclose(mat({2, 2}, {58, 64, 139, 154})));
}

TEST(Matmul, InnerMismatchThrows) {
  Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
}

TEST(Matmul, MaskedRowsSkipsInactive) {
  Tensor a = mat({2, 2}, {1, 2, 3, 4});
  Tensor b = mat({2, 2}, {1, 0, 0, 1});
  const std::vector<std::uint8_t> mask{0, 1};
  Tensor c;
  matmul_masked_rows_into(a, b, mask, c);
  EXPECT_TRUE(c.allclose(mat({2, 2}, {0, 0, 3, 4})));
}

TEST(Matmul, MaskedVariantsAgreeWithDenseReference) {
  util::Rng rng(5);
  const int m = 7, k = 5, n = 6;
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor dense = matmul(a, b);
  Tensor masked;
  matmul_masked_rows_into(a, b, {}, masked);
  EXPECT_TRUE(dense.allclose(masked));
}

TEST(Matmul, TnMaskedAccumulate) {
  // c[k,n] += a^T b over active rows.
  util::Rng rng(6);
  Tensor a = Tensor::randn({4, 3}, rng);
  Tensor b = Tensor::randn({4, 2}, rng);
  const std::vector<std::uint8_t> mask{1, 0, 1, 1};
  Tensor c({3, 2});
  matmul_tn_masked_accumulate(a, b, mask, c);
  // Reference: zero out masked rows and do full product.
  Tensor a2 = a, b2 = b;
  for (int j = 0; j < 3; ++j) a2.at(1, j) = 0.0F;
  for (int j = 0; j < 2; ++j) b2.at(1, j) = 0.0F;
  Tensor ref({3, 2});
  matmul_tn_masked_accumulate(a2, b2, {}, ref);
  EXPECT_TRUE(c.allclose(ref, 1e-4F));
}

TEST(Matmul, NtMaskedCols) {
  util::Rng rng(7);
  Tensor x = Tensor::randn({3, 4}, rng);   // [m,k]
  Tensor w = Tensor::randn({5, 4}, rng);   // [n,k]
  const std::vector<std::uint8_t> mask{1, 1, 0, 1, 0};
  Tensor y;
  matmul_nt_masked_cols_into(x, w, mask, y);
  EXPECT_EQ(y.shape(), (Shape{3, 5}));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(y.at(i, 2), 0.0F);
    EXPECT_EQ(y.at(i, 4), 0.0F);
    float ref = 0.0F;
    for (int kk = 0; kk < 4; ++kk) ref += x.at(i, kk) * w.at(1, kk);
    EXPECT_NEAR(y.at(i, 1), ref, 1e-5F);
  }
}

TEST(Matmul, NtMaskedRowsAccumulate) {
  util::Rng rng(8);
  Tensor a = Tensor::randn({3, 4}, rng);
  Tensor b = Tensor::randn({5, 4}, rng);
  const std::vector<std::uint8_t> mask{0, 1, 1, 1, 1};
  (void)mask;
  Tensor c({3, 5});
  const std::vector<std::uint8_t> row_mask{1, 0, 1};
  matmul_nt_masked_rows_accumulate(a, b, row_mask, c);
  for (int j = 0; j < 5; ++j) EXPECT_EQ(c.at(1, j), 0.0F);
  float ref = 0.0F;
  for (int kk = 0; kk < 4; ++kk) ref += a.at(2, kk) * b.at(3, kk);
  EXPECT_NEAR(c.at(2, 3), ref, 1e-5F);
}

TEST(Im2col, IdentityKernelRoundTrip) {
  // 1x1 kernel, stride 1: cols equal the flattened image.
  Conv2dGeometry g{2, 3, 3, 1, 1, 0};
  util::Rng rng(9);
  Tensor x = Tensor::randn({2, 3, 3}, rng);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x.data(), g, cols.data());
  EXPECT_TRUE(cols.reshaped({2, 3, 3}).allclose(x));
}

TEST(Im2col, PaddingProducesZeros) {
  Conv2dGeometry g{1, 2, 2, 3, 1, 1};
  Tensor x = Tensor::full({1, 2, 2}, 1.0F);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x.data(), g, cols.data());
  // Top-left output position, top-left kernel tap reads padded zero.
  EXPECT_EQ(cols.at(0, 0), 0.0F);
  // Center taps read real pixels.
  EXPECT_EQ(cols.at(4, 0), 1.0F);
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> — adjointness of unfold/fold.
  Conv2dGeometry g{2, 5, 5, 3, 2, 1};
  util::Rng rng(10);
  Tensor x = Tensor::randn({2, 5, 5}, rng);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x.data(), g, cols.data());
  Tensor c = Tensor::randn(cols.shape(), rng);
  double lhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols.flat()[i]) * c.flat()[i];
  }
  Tensor folded({2, 5, 5});
  col2im_accumulate(c.data(), g, folded.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x.flat()[i]) * folded.flat()[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// Odd geometries for the unfold/fold property tests: strided, padded, 1x1
// kernels, kernel == stride (disjoint patches), and non-square inputs.
const Conv2dGeometry kOddGeometries[] = {
    {2, 5, 5, 3, 2, 1},   // stride 2 + pad
    {3, 4, 4, 1, 1, 0},   // 1x1 kernel
    {1, 9, 9, 3, 3, 0},   // kernel == stride: every pixel in one patch
    {2, 7, 3, 3, 1, 1},   // non-square input, pad
    {4, 6, 10, 5, 2, 2},  // non-square, stride 2, wide pad
};

TEST(Im2col, FoldUnfoldMatchesCoverageCounts) {
  // col2im(im2col(x)) == x * counts, where counts[p] is how many patches
  // cover pixel p (computed by folding an all-ones cols matrix). Exact in
  // float because each product is x * small-integer via repeated adds.
  for (const Conv2dGeometry& g : kOddGeometries) {
    util::Rng rng(21);
    Tensor x = Tensor::randn({g.in_channels, g.in_h, g.in_w}, rng);
    Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
    im2col(x.data(), g, cols.data());
    Tensor folded({g.in_channels, g.in_h, g.in_w});
    col2im_accumulate(cols.data(), g, folded.data());

    Tensor ones = Tensor::full(cols.shape(), 1.0F);
    Tensor counts({g.in_channels, g.in_h, g.in_w});
    col2im_accumulate(ones.data(), g, counts.data());

    for (std::size_t i = 0; i < x.numel(); ++i) {
      EXPECT_NEAR(folded.flat()[i], x.flat()[i] * counts.flat()[i], 1e-4F)
          << "pixel " << i << " k=" << g.kernel << " s=" << g.stride
          << " p=" << g.pad;
    }
  }
}

TEST(Im2col, AdjointHoldsOnOddGeometries) {
  // <im2col(x), c> == <x, col2im(c)> for every odd geometry — fold must
  // stay the exact adjoint of unfold or conv2d backward silently skews.
  for (const Conv2dGeometry& g : kOddGeometries) {
    util::Rng rng(22);
    Tensor x = Tensor::randn({g.in_channels, g.in_h, g.in_w}, rng);
    Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
    im2col(x.data(), g, cols.data());
    Tensor c = Tensor::randn(cols.shape(), rng);
    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.numel(); ++i) {
      lhs += static_cast<double>(cols.flat()[i]) * c.flat()[i];
    }
    Tensor folded({g.in_channels, g.in_h, g.in_w});
    col2im_accumulate(c.data(), g, folded.data());
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.numel(); ++i) {
      rhs += static_cast<double>(x.flat()[i]) * folded.flat()[i];
    }
    EXPECT_NEAR(lhs, rhs, 1e-3)
        << "k=" << g.kernel << " s=" << g.stride << " p=" << g.pad;
  }
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(11);
  Tensor logits = Tensor::randn({4, 7}, rng, 3.0F);
  Tensor probs;
  row_softmax(logits, probs);
  for (int i = 0; i < 4; ++i) {
    float s = 0.0F;
    for (int j = 0; j < 7; ++j) {
      EXPECT_GT(probs.at(i, j), 0.0F);
      s += probs.at(i, j);
    }
    EXPECT_NEAR(s, 1.0F, 1e-5F);
  }
}

TEST(Softmax, StableForLargeLogits) {
  Tensor logits = mat({1, 3}, {1000.0F, 999.0F, 998.0F});
  Tensor probs;
  row_softmax(logits, probs);
  EXPECT_FALSE(std::isnan(probs.at(0, 0)));
  EXPECT_GT(probs.at(0, 0), probs.at(0, 1));
}

TEST(CrossEntropy, UniformLogitsLossIsLogC) {
  Tensor logits({2, 4});
  const std::vector<int> labels{1, 3};
  Tensor grad;
  const double loss = softmax_cross_entropy(logits, labels, grad);
  EXPECT_NEAR(loss, std::log(4.0), 1e-5);
}

TEST(CrossEntropy, GradientSumsToZeroPerRow) {
  util::Rng rng(12);
  Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<int> labels{0, 2, 4};
  Tensor grad;
  softmax_cross_entropy(logits, labels, grad);
  for (int i = 0; i < 3; ++i) {
    float s = 0.0F;
    for (int j = 0; j < 5; ++j) s += grad.at(i, j);
    EXPECT_NEAR(s, 0.0F, 1e-6F);
  }
}

TEST(CrossEntropy, RejectsBadLabels) {
  Tensor logits({2, 3});
  Tensor grad;
  const std::vector<int> bad{0, 3};
  EXPECT_THROW(softmax_cross_entropy(logits, bad, grad), std::out_of_range);
  const std::vector<int> wrong_count{0};
  EXPECT_THROW(softmax_cross_entropy(logits, wrong_count, grad),
               std::invalid_argument);
}

TEST(CountCorrect, ArgmaxMatching) {
  Tensor logits = mat({3, 3}, {5, 1, 1, 0, 9, 0, 1, 2, 3});
  const std::vector<int> labels{0, 1, 0};
  EXPECT_EQ(count_correct(logits, labels), 2);
}

}  // namespace
}  // namespace helios::tensor
