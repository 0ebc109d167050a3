#include <gtest/gtest.h>

#include <cmath>

#include "models/zoo.h"
#include "nn/sgd.h"

namespace helios::nn {
namespace {

using tensor::Tensor;

TEST(Sgd, RejectsBadHyperparameters) {
  EXPECT_THROW(Sgd(0.0F), std::invalid_argument);
  EXPECT_THROW(Sgd(-0.1F), std::invalid_argument);
  EXPECT_THROW(Sgd(0.1F, 1.0F), std::invalid_argument);
  EXPECT_THROW(Sgd(0.1F, -0.1F), std::invalid_argument);
  EXPECT_THROW(Sgd(0.1F, 0.0F, -1.0F), std::invalid_argument);
}

TEST(Sgd, PlainStepIsWMinusLrG) {
  Model m = models::make_mlp({1, 2, 2, 2}, 1, 3);
  Sgd opt(0.5F);
  auto before = m.params_flat();
  // Manufacture a known gradient: all ones.
  for (const ParamRef& ref : m.param_refs()) ref.grad->fill(1.0F);
  opt.step(m);
  auto after = m.params_flat();
  for (std::size_t f = 0; f < before.size(); ++f) {
    EXPECT_NEAR(after[f], before[f] - 0.5F, 1e-6F);
  }
}

TEST(Sgd, WeightDecayShrinksWeights) {
  Model m = models::make_mlp({1, 2, 2, 2}, 2, 3);
  Sgd opt(0.1F, 0.0F, 0.5F);
  auto before = m.params_flat();
  for (const ParamRef& ref : m.param_refs()) ref.grad->fill(0.0F);
  opt.step(m);
  auto after = m.params_flat();
  for (std::size_t f = 0; f < before.size(); ++f) {
    EXPECT_NEAR(after[f], before[f] * (1.0F - 0.1F * 0.5F), 1e-6F);
  }
}

TEST(Sgd, MomentumAccumulates) {
  Model m = models::make_mlp({1, 2, 2, 2}, 3, 3);
  Sgd opt(1.0F, 0.5F);
  auto w0 = m.params_flat();
  for (const ParamRef& ref : m.param_refs()) ref.grad->fill(1.0F);
  opt.step(m);  // v=1, w -= 1
  for (const ParamRef& ref : m.param_refs()) ref.grad->fill(1.0F);
  opt.step(m);  // v=1.5, w -= 1.5
  auto w2 = m.params_flat();
  for (std::size_t f = 0; f < w0.size(); ++f) {
    EXPECT_NEAR(w2[f], w0[f] - 2.5F, 1e-5F);
  }
}

TEST(Sgd, FrozenParamsSkipMomentumAndDecay) {
  Model m = models::make_mlp({1, 2, 2, 2}, 4, 4);
  Sgd opt(0.3F, 0.9F, 0.1F);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(m.neuron_total()), 1);
  mask[0] = 0;
  m.set_neuron_mask(mask);
  auto before = m.params_flat();
  for (const ParamRef& ref : m.param_refs()) ref.grad->fill(1.0F);
  opt.step(m);
  opt.step(m);
  auto after = m.params_flat();
  for (const FlatSlice& s : m.neurons()[0].slices) {
    for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
      EXPECT_EQ(after[f], before[f]);
    }
  }
}

TEST(Sgd, ClipRescalesLargeGradients) {
  Model m = models::make_mlp({1, 2, 2, 2}, 5, 3);
  const std::size_t n = m.param_count();
  // All-ones gradient has L2 norm sqrt(n); clip to 1.0 and verify the step
  // is exactly lr / sqrt(n).
  Sgd opt(1.0F, 0.0F, 0.0F, 1.0F);
  auto before = m.params_flat();
  for (const ParamRef& ref : m.param_refs()) ref.grad->fill(1.0F);
  opt.step(m);
  auto after = m.params_flat();
  const float expected_step = 1.0F / std::sqrt(static_cast<float>(n));
  for (std::size_t f = 0; f < n; ++f) {
    EXPECT_NEAR(before[f] - after[f], expected_step, 1e-5F);
  }
}

TEST(Sgd, ClipLeavesSmallGradientsAlone) {
  Model m = models::make_mlp({1, 2, 2, 2}, 6, 3);
  Sgd opt(1.0F, 0.0F, 0.0F, 1e6F);
  auto before = m.params_flat();
  for (const ParamRef& ref : m.param_refs()) ref.grad->fill(0.5F);
  opt.step(m);
  auto after = m.params_flat();
  for (std::size_t f = 0; f < before.size(); ++f) {
    EXPECT_NEAR(before[f] - after[f], 0.5F, 1e-5F);
  }
}

TEST(Sgd, NegativeClipRejected) {
  EXPECT_THROW(Sgd(0.1F, 0.0F, 0.0F, -1.0F), std::invalid_argument);
}

}  // namespace
}  // namespace helios::nn
