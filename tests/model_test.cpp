// Model container: parameter flattening, neuron index, mask distribution,
// frozen-parameter bookkeeping, FLOP accounting.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "models/zoo.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/model.h"
#include "nn/sgd.h"

namespace helios::nn {
namespace {

using tensor::Tensor;

Model small_model(std::uint64_t seed = 3) {
  return models::make_mlp({1, 3, 3, 4}, seed, 6);
}

TEST(Model, ParamRoundTrip) {
  Model m = small_model();
  auto flat = m.params_flat();
  EXPECT_EQ(flat.size(), m.param_count());
  // Perturb, reload, verify.
  for (float& v : flat) v += 1.0F;
  m.load_params(flat);
  auto again = m.params_flat();
  EXPECT_EQ(flat, again);
}

TEST(Model, LoadRejectsWrongSize) {
  Model m = small_model();
  std::vector<float> wrong(m.param_count() + 1);
  EXPECT_THROW(m.load_params(wrong), std::invalid_argument);
}

TEST(Model, NeuronIndexCountsMaskableUnitsOnly) {
  Model m = small_model();
  // Hidden dense has 6 maskable units; head (4 classes) is not maskable.
  EXPECT_EQ(m.neuron_total(), 6);
}

TEST(Model, NeuronSlicesAreDisjointAndInRange) {
  models::InputSpec in{1, 12, 12, 5};
  Model m = models::make_lenet(in, 4);
  std::vector<int> owner(m.param_count(), -1);
  for (std::size_t j = 0; j < m.neurons().size(); ++j) {
    for (const FlatSlice& s : m.neurons()[j].slices) {
      ASSERT_LE(s.offset + s.length, m.param_count());
      for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
        EXPECT_EQ(owner[f], -1) << "parameter owned twice";
        owner[f] = static_cast<int>(j);
      }
    }
  }
}

TEST(Model, SetNeuronMaskDistributesToLayers) {
  Model m = small_model();
  std::vector<std::uint8_t> mask(6, 1);
  mask[2] = 0;
  m.set_neuron_mask(mask);
  util::Rng rng(5);
  Tensor x = Tensor::randn({2, 1, 3, 3}, rng);
  Tensor y = m.forward(x, false);
  EXPECT_EQ(y.dim(1), 4);  // head unaffected
  // Hidden activations of unit 2 are zero — verify indirectly: unit 2's
  // outgoing weights can be anything, but the model must equal a model
  // whose unit-2 row is zeroed. Easiest check: frozen mask marks its params.
  const auto& frozen = m.frozen_flat_mask();
  const auto& slices = m.neurons()[2].slices;
  for (const FlatSlice& s : slices) {
    for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
      EXPECT_EQ(frozen[f], 1);
    }
  }
}

TEST(Model, MaskSizeValidated) {
  Model m = small_model();
  std::vector<std::uint8_t> wrong(5, 1);
  EXPECT_THROW(m.set_neuron_mask(wrong), std::invalid_argument);
}

TEST(Model, ClearMaskRestoresFullFlops) {
  Model m = small_model();
  const double full = m.forward_flops_per_sample();
  std::vector<std::uint8_t> mask(6, 0);
  mask[0] = 1;
  m.set_neuron_mask(mask);
  EXPECT_LT(m.forward_flops_per_sample(), full);
  m.clear_neuron_mask();
  EXPECT_EQ(m.forward_flops_per_sample(), full);
  EXPECT_TRUE(m.frozen_flat_mask().empty());
}

TEST(Model, TrainFlopsIsTripleForward) {
  Model m = small_model();
  EXPECT_DOUBLE_EQ(m.train_flops_per_sample(),
                   3.0 * m.forward_flops_per_sample());
}

TEST(Model, BatchNormFollowsConvMaskThroughLinking) {
  util::Rng rng(6);
  Model m;
  auto& conv = static_cast<Conv2d&>(
      m.add(std::make_unique<Conv2d>(1, 4, 4, 3, 3, 1, 1, &rng)));
  auto& bn = static_cast<BatchNorm2d&>(
      m.add(std::make_unique<BatchNorm2d>(3, 4, 4)));
  m.link_follower(bn, conv);
  m.add(std::make_unique<Flatten>(3, 4, 4));
  m.add(std::make_unique<Dense>(48, 2, &rng, /*maskable=*/false));
  m.finalize();
  // 3 conv filters are the only neurons; each owns conv row+bias and BN
  // gamma+beta: patch(9) + 1 + 1 + 1 = 12 params.
  EXPECT_EQ(m.neuron_total(), 3);
  EXPECT_EQ(m.neurons()[0].param_count(), 12u);

  std::vector<std::uint8_t> mask{1, 0, 1};
  m.set_neuron_mask(mask);
  Tensor x = Tensor::randn({2, 1, 4, 4}, rng);
  Tensor y = m.forward(x, true);
  EXPECT_EQ(y.dim(1), 2);
}

TEST(Model, FollowerLinkValidation) {
  util::Rng rng(7);
  Model m;
  auto& conv = static_cast<Conv2d&>(
      m.add(std::make_unique<Conv2d>(1, 4, 4, 3, 3, 1, 1, &rng)));
  auto& bn = static_cast<BatchNorm2d&>(
      m.add(std::make_unique<BatchNorm2d>(3, 4, 4)));
  auto& bn_wrong = static_cast<BatchNorm2d&>(
      m.add(std::make_unique<BatchNorm2d>(3, 4, 4)));
  // Linking a non-follower as follower fails.
  EXPECT_THROW(m.link_follower(conv, conv), std::invalid_argument);
  // Leader must not itself be a follower.
  EXPECT_THROW(m.link_follower(bn, bn_wrong), std::invalid_argument);
}

TEST(Model, AddAfterFinalizeThrows) {
  Model m = small_model();
  m.finalize();
  util::Rng rng(8);
  EXPECT_THROW(m.add(std::make_unique<Dense>(2, 2, &rng)), std::logic_error);
}

TEST(Model, TrainStepReducesLossOnAverage) {
  Model m = small_model(9);
  Sgd opt(0.1F);
  util::Rng rng(10);
  Tensor x = Tensor::randn({16, 1, 3, 3}, rng);
  std::vector<int> labels;
  for (int i = 0; i < 16; ++i) {
    labels.push_back(static_cast<int>(rng.uniform_int(4)));
  }
  double first = 0.0, last = 0.0;
  for (int step = 0; step < 30; ++step) {
    const StepResult r = train_step(m, opt, x, labels);
    if (step == 0) first = r.loss;
    last = r.loss;
  }
  EXPECT_LT(last, first);  // memorizes a fixed batch
}

TEST(Model, FrozenNeuronsUntouchedByTrainStep) {
  Model m = small_model(11);
  Sgd opt(0.2F);
  std::vector<std::uint8_t> mask(6, 1);
  mask[1] = 0;
  mask[4] = 0;
  m.set_neuron_mask(mask);
  const auto before = m.params_flat();
  util::Rng rng(12);
  Tensor x = Tensor::randn({8, 1, 3, 3}, rng);
  std::vector<int> labels{0, 1, 2, 3, 0, 1, 2, 3};
  for (int step = 0; step < 5; ++step) train_step(m, opt, x, labels);
  const auto after = m.params_flat();
  for (int j : {1, 4}) {
    for (const FlatSlice& s : m.neurons()[static_cast<std::size_t>(j)].slices) {
      for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
        EXPECT_EQ(before[f], after[f]) << "frozen neuron " << j << " moved";
      }
    }
  }
  // Active neurons did move.
  bool moved = false;
  for (const FlatSlice& s : m.neurons()[0].slices) {
    for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
      moved |= before[f] != after[f];
    }
  }
  EXPECT_TRUE(moved);
}

TEST(Model, ModelsWithoutBatchNormHaveNoBuffers) {
  Model m = small_model();
  EXPECT_EQ(m.buffer_count(), 0u);
  EXPECT_TRUE(m.buffers_flat().empty());
  EXPECT_NO_THROW(m.load_buffers({}));
}

TEST(Model, BatchNormBuffersRoundTrip) {
  models::InputSpec in{3, 8, 8, 4};
  Model m = models::make_resnet18_lite(in, 21, 4, 1);
  const std::size_t n = m.buffer_count();
  ASSERT_GT(n, 0u);
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<float>(i) * 0.5F;
  m.load_buffers(values);
  EXPECT_EQ(m.buffers_flat(), values);
  std::vector<float> wrong(n + 1);
  EXPECT_THROW(m.load_buffers(wrong), std::invalid_argument);
}

TEST(Model, TrainingUpdatesBuffers) {
  models::InputSpec in{3, 8, 8, 4};
  Model m = models::make_resnet18_lite(in, 22, 4, 1);
  Sgd opt(0.05F);
  const auto before = m.buffers_flat();
  util::Rng rng(23);
  Tensor x = Tensor::randn({8, 3, 8, 8}, rng);
  std::vector<int> labels{0, 1, 2, 3, 0, 1, 2, 3};
  train_step(m, opt, x, labels);
  EXPECT_NE(m.buffers_flat(), before);  // running stats moved
}

TEST(Model, EvaluateBatchCountsCorrect) {
  Model m = small_model(13);
  util::Rng rng(14);
  Tensor x = Tensor::randn({6, 1, 3, 3}, rng);
  std::vector<int> labels{0, 0, 0, 0, 0, 0};
  const int correct = evaluate_batch(m, x, labels);
  EXPECT_GE(correct, 0);
  EXPECT_LE(correct, 6);
}

}  // namespace
}  // namespace helios::nn
