#include "models/zoo.h"

#include <memory>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise.h"
#include "nn/flatten.h"
#include "nn/groupnorm.h"
#include "nn/pool.h"
#include "nn/residual.h"

namespace helios::models {

using nn::BatchNorm2d;
using nn::Conv2d;
using nn::Dense;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::MaxPool2d;
using nn::Model;
using nn::ReLU;
using nn::ResidualBlock;

nn::Model make_lenet(const InputSpec& in, Seed seed) {
  util::Rng rng(seed.value_or(0));
  util::Rng* const init = seed ? &rng : nullptr;  // null: a blank model
  Model m;
  // conv1 keeps spatial size (k5, pad 2), pool halves it.
  auto& c1 = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      in.channels, in.height, in.width, 6, 5, 1, 2, init)));
  m.add(std::make_unique<ReLU>());
  auto& p1 = static_cast<MaxPool2d&>(m.add(std::make_unique<MaxPool2d>(
      6, c1.out_h(), c1.out_w(), 2, 2)));
  auto& c2 = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      6, p1.out_h(), p1.out_w(), 16, 5, 1, 0, init)));
  m.add(std::make_unique<ReLU>());
  auto& p2 = static_cast<MaxPool2d&>(m.add(std::make_unique<MaxPool2d>(
      16, c2.out_h(), c2.out_w(), 2, 2)));
  const int feat = 16 * p2.out_h() * p2.out_w();
  m.add(std::make_unique<Flatten>(16, p2.out_h(), p2.out_w()));
  m.add(std::make_unique<Dense>(feat, 120, init));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(120, 84, init));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(84, in.classes, init, /*maskable=*/false));
  m.finalize();
  return m;
}

nn::Model make_alexnet_lite(const InputSpec& in, Seed seed,
                            int width) {
  if (width <= 0) throw std::invalid_argument("alexnet_lite: width <= 0");
  util::Rng rng(seed.value_or(0));
  util::Rng* const init = seed ? &rng : nullptr;  // null: a blank model
  Model m;
  const int w = width;
  auto& c1 = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      in.channels, in.height, in.width, w, 3, 1, 1, init)));
  m.add(std::make_unique<ReLU>());
  auto& p1 = static_cast<MaxPool2d&>(m.add(std::make_unique<MaxPool2d>(
      w, c1.out_h(), c1.out_w(), 2, 2)));
  auto& c2 = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      w, p1.out_h(), p1.out_w(), 2 * w, 3, 1, 1, init)));
  m.add(std::make_unique<ReLU>());
  auto& p2 = static_cast<MaxPool2d&>(m.add(std::make_unique<MaxPool2d>(
      2 * w, c2.out_h(), c2.out_w(), 2, 2)));
  auto& c3 = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      2 * w, p2.out_h(), p2.out_w(), 3 * w, 3, 1, 1, init)));
  m.add(std::make_unique<ReLU>());
  auto& c4 = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      3 * w, c3.out_h(), c3.out_w(), 3 * w, 3, 1, 1, init)));
  m.add(std::make_unique<ReLU>());
  auto& c5 = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      3 * w, c4.out_h(), c4.out_w(), 2 * w, 3, 1, 1, init)));
  m.add(std::make_unique<ReLU>());
  auto& p3 = static_cast<MaxPool2d&>(m.add(std::make_unique<MaxPool2d>(
      2 * w, c5.out_h(), c5.out_w(), 2, 2)));
  const int feat = 2 * w * p3.out_h() * p3.out_w();
  m.add(std::make_unique<Flatten>(2 * w, p3.out_h(), p3.out_w()));
  m.add(std::make_unique<Dense>(feat, 16 * w, init));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(16 * w, 8 * w, init));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(8 * w, in.classes, init, /*maskable=*/false));
  m.finalize();
  return m;
}

nn::Model make_resnet18_lite(const InputSpec& in, Seed seed,
                             int base_width, int blocks_per_stage) {
  if (base_width <= 0 || blocks_per_stage <= 0) {
    throw std::invalid_argument("resnet18_lite: bad width/blocks");
  }
  util::Rng rng(seed.value_or(0));
  util::Rng* const init = seed ? &rng : nullptr;  // null: a blank model
  Model m;
  const int b = base_width;
  auto& stem = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      in.channels, in.height, in.width, b, 3, 1, 1, init)));
  auto& stem_bn = static_cast<BatchNorm2d&>(m.add(
      std::make_unique<BatchNorm2d>(b, stem.out_h(), stem.out_w())));
  m.link_follower(stem_bn, stem);
  m.add(std::make_unique<ReLU>());

  int ch = b, h = stem.out_h(), w = stem.out_w();
  const int stage_channels[4] = {b, 2 * b, 4 * b, 8 * b};
  for (int stage = 0; stage < 4; ++stage) {
    for (int block = 0; block < blocks_per_stage; ++block) {
      const int stride = (stage > 0 && block == 0) ? 2 : 1;
      auto& rb = static_cast<ResidualBlock&>(m.add(
          std::make_unique<ResidualBlock>(ch, h, w, stage_channels[stage],
                                          stride, init)));
      ch = rb.out_channels();
      h = rb.out_h();
      w = rb.out_w();
    }
  }
  m.add(std::make_unique<GlobalAvgPool>(ch, h, w));
  m.add(std::make_unique<Dense>(ch, in.classes, init, /*maskable=*/false));
  m.finalize();
  return m;
}

nn::Model make_mlp(const InputSpec& in, Seed seed, int hidden) {
  if (hidden <= 0) throw std::invalid_argument("mlp: hidden <= 0");
  util::Rng rng(seed.value_or(0));
  util::Rng* const init = seed ? &rng : nullptr;  // null: a blank model
  Model m;
  const int feat = in.channels * in.height * in.width;
  m.add(std::make_unique<Flatten>(in.channels, in.height, in.width));
  m.add(std::make_unique<Dense>(feat, hidden, init));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(hidden, in.classes, init, /*maskable=*/false));
  m.finalize();
  return m;
}

nn::Model make_mobilenet_lite(const InputSpec& in, Seed seed,
                              int base_width) {
  if (base_width <= 0 || base_width % 4 != 0) {
    throw std::invalid_argument(
        "mobilenet_lite: base width must be a positive multiple of 4");
  }
  util::Rng rng(seed.value_or(0));
  util::Rng* const init = seed ? &rng : nullptr;  // null: a blank model
  Model m;
  const int b = base_width;
  auto& stem = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
      in.channels, in.height, in.width, b, 3, 1, 1, init)));
  auto& stem_gn = static_cast<nn::GroupNorm2d&>(m.add(
      std::make_unique<nn::GroupNorm2d>(b, stem.out_h(), stem.out_w(), 4)));
  m.link_follower(stem_gn, stem);
  m.add(std::make_unique<ReLU>());

  struct BlockSpec {
    int out_channels;
    int stride;
  };
  const BlockSpec blocks[4] = {{2 * b, 2}, {2 * b, 1}, {4 * b, 2}, {4 * b, 1}};
  Conv2d* prev_conv = &stem;
  int ch = b, h = stem.out_h(), w = stem.out_w();
  for (const BlockSpec& blk : blocks) {
    auto& dw = static_cast<nn::DepthwiseConv2d&>(
        m.add(std::make_unique<nn::DepthwiseConv2d>(ch, h, w, 3, blk.stride,
                                                    1, init,
                                                    /*follower=*/true)));
    m.link_follower(dw, *prev_conv);
    auto& gn1 = static_cast<nn::GroupNorm2d&>(m.add(
        std::make_unique<nn::GroupNorm2d>(ch, dw.out_h(), dw.out_w(), 4)));
    m.link_follower(gn1, *prev_conv);
    m.add(std::make_unique<ReLU>());
    auto& pw = static_cast<Conv2d&>(m.add(std::make_unique<Conv2d>(
        ch, dw.out_h(), dw.out_w(), blk.out_channels, 1, 1, 0, init)));
    auto& gn2 = static_cast<nn::GroupNorm2d&>(
        m.add(std::make_unique<nn::GroupNorm2d>(blk.out_channels, pw.out_h(),
                                                pw.out_w(), 4)));
    m.link_follower(gn2, pw);
    m.add(std::make_unique<ReLU>());
    prev_conv = &pw;
    ch = blk.out_channels;
    h = pw.out_h();
    w = pw.out_w();
  }
  m.add(std::make_unique<GlobalAvgPool>(ch, h, w));
  m.add(std::make_unique<Dense>(ch, in.classes, init, /*maskable=*/false));
  m.finalize();
  return m;
}

ModelSpec lenet_spec(const InputSpec& in) {
  return {"LeNet", in,
          [in](Seed seed) { return make_lenet(in, seed); }};
}

ModelSpec alexnet_lite_spec(const InputSpec& in, int width) {
  return {"AlexNet-lite", in, [in, width](Seed seed) {
            return make_alexnet_lite(in, seed, width);
          }};
}

ModelSpec resnet18_lite_spec(const InputSpec& in, int base_width,
                             int blocks_per_stage) {
  return {"ResNet18-lite", in, [in, base_width, blocks_per_stage](
                                   Seed seed) {
            return make_resnet18_lite(in, seed, base_width, blocks_per_stage);
          }};
}

ModelSpec mlp_spec(const InputSpec& in, int hidden) {
  return {"MLP", in, [in, hidden](Seed seed) {
            return make_mlp(in, seed, hidden);
          }};
}

ModelSpec mobilenet_lite_spec(const InputSpec& in, int base_width) {
  return {"MobileNet-lite", in, [in, base_width](Seed seed) {
            return make_mobilenet_lite(in, seed, base_width);
          }};
}

}  // namespace helios::models
