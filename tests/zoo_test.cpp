#include <gtest/gtest.h>

#include "models/zoo.h"
#include "test_support.h"

namespace helios::models {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(Zoo, LeNetShapesAndNeurons) {
  nn::Model m = make_lenet({1, 28, 28, 10}, 1);
  util::Rng rng(2);
  Tensor x = Tensor::randn({2, 1, 28, 28}, rng);
  Tensor y = m.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  // conv1(6) + conv2(16) + fc1(120) + fc2(84); head not maskable.
  EXPECT_EQ(m.neuron_total(), 226);
  EXPECT_EQ(m.param_count(), 61706u);  // classic LeNet-5 on 28x28
}

TEST(Zoo, AlexNetLiteShapes) {
  nn::Model m = make_alexnet_lite({3, 32, 32, 10}, 1, 8);
  util::Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 32, 32}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{2, 10}));
  // 5 conv stages + 2 hidden dense are maskable.
  EXPECT_EQ(m.neuron_total(), 8 + 16 + 24 + 24 + 16 + 128 + 64);
}

TEST(Zoo, ResNetLiteShapesAndBatchNormFollowers) {
  nn::Model m = make_resnet18_lite({3, 16, 16, 100}, 1, 8, 1);
  util::Rng rng(4);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng);
  EXPECT_EQ(m.forward(x, true).shape(), (Shape{2, 100}));
  // Stem conv (8) + 4 stages x 1 block x 2 convs: 8+8 + 16+16 + 32+32 +
  // 64+64 = 240; + stem 8 = 248.
  EXPECT_EQ(m.neuron_total(), 248);
  // Every maskable conv neuron owns its BN affine pair: filter + bias +
  // gamma + beta.
  const auto& stem_neuron = m.neurons()[0];
  EXPECT_EQ(stem_neuron.param_count(), 3u * 9u + 1u + 2u);
}

TEST(Zoo, ResNetFullDepthBuilds) {
  nn::Model m = make_resnet18_lite({3, 16, 16, 10}, 1, 4, 2);
  util::Rng rng(5);
  Tensor x = Tensor::randn({1, 3, 16, 16}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{1, 10}));
}

TEST(Zoo, MlpBuilds) {
  nn::Model m = make_mlp({1, 6, 6, 4}, 1, 12);
  util::Rng rng(6);
  Tensor x = Tensor::randn({3, 1, 6, 6}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{3, 4}));
  EXPECT_EQ(m.neuron_total(), 12);
}

TEST(Zoo, SpecBuildersAreDeterministic) {
  const ModelSpec spec = lenet_spec();
  nn::Model a = spec.build(42);
  nn::Model b = spec.build(42);
  EXPECT_EQ(a.params_flat(), b.params_flat());
  nn::Model c = spec.build(43);
  EXPECT_NE(a.params_flat(), c.params_flat());
}

TEST(Zoo, SpecsReportNames) {
  EXPECT_EQ(lenet_spec().name, "LeNet");
  EXPECT_EQ(alexnet_lite_spec().name, "AlexNet-lite");
  EXPECT_EQ(resnet18_lite_spec().name, "ResNet18-lite");
  EXPECT_EQ(mlp_spec({1, 4, 4, 2}).name, "MLP");
}

TEST(Zoo, RejectsBadArguments) {
  EXPECT_THROW(make_alexnet_lite({3, 32, 32, 10}, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(make_resnet18_lite({3, 16, 16, 10}, 1, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(make_mlp({1, 4, 4, 2}, 1, 0), std::invalid_argument);
}

// Client and evaluation replicas are built blank and loaded before use, so
// load_params + load_buffers must overwrite every value a drawn model holds.
TEST(Zoo, BlankModelLoadedWithADrawnModelIsThatModel) {
  const ModelSpec specs[] = {lenet_spec({1, 16, 16, 10}), alexnet_lite_spec(),
                             resnet18_lite_spec(), mlp_spec({1, 6, 6, 4}),
                             mobilenet_lite_spec()};
  for (const ModelSpec& spec : specs) {
    const InputSpec& in = spec.input;
    util::Rng rng(7);
    const Tensor x = Tensor::randn({4, in.channels, in.height, in.width}, rng);
    nn::Model drawn = spec.build(11);
    drawn.forward(x, /*training=*/true);  // moves BatchNorm running stats
    nn::Model blank = spec.blank();
    EXPECT_EQ(blank.param_count(), drawn.param_count()) << spec.name;
    EXPECT_EQ(blank.buffer_count(), drawn.buffer_count()) << spec.name;
    EXPECT_EQ(blank.neuron_total(), drawn.neuron_total()) << spec.name;
    EXPECT_FALSE(helios::testing::bitwise_equal(blank.params_flat(),
                                                drawn.params_flat()))
        << spec.name;
    blank.load_params(drawn.params_flat());
    blank.load_buffers(drawn.buffers_flat());
    EXPECT_TRUE(helios::testing::bitwise_equal(blank.params_flat(),
                                               drawn.params_flat()))
        << spec.name;
    EXPECT_TRUE(helios::testing::bitwise_equal(blank.buffers_flat(),
                                               drawn.buffers_flat()))
        << spec.name;
    for (bool training : {false, true}) {
      const Tensor a = drawn.forward(x, training);
      const Tensor b = blank.forward(x, training);
      EXPECT_TRUE(helios::testing::bitwise_equal(
          std::span(a.data(), a.numel()), std::span(b.data(), b.numel())))
          << spec.name << (training ? " training" : " eval");
    }
  }
}

TEST(Zoo, WidthScalingChangesCapacity) {
  nn::Model narrow = make_alexnet_lite({3, 16, 16, 10}, 1, 4);
  nn::Model wide = make_alexnet_lite({3, 16, 16, 10}, 1, 8);
  EXPECT_LT(narrow.param_count(), wide.param_count());
}

}  // namespace
}  // namespace helios::models
