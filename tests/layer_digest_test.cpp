// Cross-commit pins for the layer stack of the zoo's convolutional models.
//
// The round goldens (round_golden_test) run the MLP and LeNet on the scalar
// table only, so AlexNet-lite on AVX2 and every stride-2 geometry were
// pinned by nothing. This suite pins, per model and per compiled-in kernel
// backend, FNV-1a digests of:
//
//   * model.eval / model.train — logits of an eval and a training forward;
//   * model.grads — every parameter gradient after Model::backward, once
//     unmasked and once under a neuron mask; model.grads16 the same for
//     one masked batch of 16 samples;
//   * layers.eval / layers.train / layers.dx / layers.grads — each leaf run
//     on its own: the clean activation reaching it, poisoned with NaN, ±inf
//     and -0.0 (MaxPool inputs also get tied windows, an all-NaN and an
//     all--inf window), unmasked and masked;
//   * pool.argmax — MaxPool's backward of an index-tagged gradient, which
//     shows where every window routed its gradient (an all-NaN window
//     routes it to plane index 0).
//
// The constants were recorded against commit c8dc84c, before the
// data-movement fast paths (bounds-hoisted im2col/col2im, select ReLU,
// fixed-window MaxPool) and before Model::backward stopped forming the
// first layer's input gradient. The LeNet-16 pins (LeNet on 1x16x16, the
// mobile_longtail model, whose conv2 dW GEMM has a 16-float plane) were
// recorded against commit ed23d9d, before the NT kernels were register-tiled
// and before im2col became block fills and row copies.
// They are never re-recorded to make a change pass: a mismatch means a
// layer's arithmetic changed. A mismatch prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "nn/conv2d.h"
#include "nn/pool.h"
#include "tensor/backend/dispatch.h"
#include "tensor/ops.h"
#include "test_support.h"
#include "util/rng.h"

namespace helios {
namespace {

using tensor::Tensor;
using tensor::backend::Backend;

constexpr int kBatch = 4;
constexpr int kWideBatch = 16;
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

/// Bytes of one digest part: shapes and float bits, appended in call order.
class Part {
 public:
  void add(const Tensor& t) {
    for (int d : t.shape()) append(&d, sizeof d);
    append(t.data(), t.numel() * sizeof(float));
  }
  std::uint64_t digest() const { return testing::fnv1a(bytes_); }

 private:
  void append(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes_.insert(bytes_.end(), b, b + n);
  }
  std::vector<std::uint8_t> bytes_;
};

using Parts = std::map<std::string, Part>;

/// Mask with every third unit (1, 4, 7, ...) switched off.
std::vector<std::uint8_t> third_off_mask(int n) {
  std::vector<std::uint8_t> m(static_cast<std::size_t>(n), 1);
  for (int j = 1; j < n; j += 3) m[static_cast<std::size_t>(j)] = 0;
  return m;
}

/// NaN, +inf, -inf and -0.0 at fixed positions spread over the batch, so
/// at least one sample stays clean.
void poison(Tensor& x) {
  const std::size_t n = x.numel();
  const float specials[] = {kNaN, kInf, -kInf, -0.0F};
  const std::size_t at[] = {0, n / 7 + 1, n / 3 + 2, n / 2 + 3};
  for (int i = 0; i < 4; ++i) x.data()[at[i] % n] = specials[i];
}

/// Special 2x2/stride-2 windows in sample 0, channel 0 of a MaxPool input:
/// (0,0) all NaN, (0,1) a tie between taps 1 and 2, (0,2) -0.0 before
/// +0.0, (1,0) all -inf, (1,1) NaN first then finite values.
void poison_pool_windows(Tensor& x) {
  const int w = x.dim(3);
  float* p = x.data();
  auto tap = [&](int wy, int wx, int k) -> float& {
    return p[(2 * wy + k / 2) * w + 2 * wx + k % 2];
  };
  for (int k = 0; k < 4; ++k) tap(0, 0, k) = kNaN;
  const float tie[] = {0.25F, 1.5F, 1.5F, -2.0F};
  for (int k = 0; k < 4; ++k) tap(0, 1, k) = tie[k];
  const float zeros[] = {-0.0F, 0.0F, -1.0F, -0.0F};
  for (int k = 0; k < 4; ++k) tap(0, 2, k) = zeros[k];
  for (int k = 0; k < 4; ++k) tap(1, 0, k) = -kInf;
  const float nan_first[] = {kNaN, -3.0F, 0.5F, 0.5F};
  for (int k = 0; k < 4; ++k) tap(1, 1, k) = nan_first[k];
}

/// Runs one leaf on a poisoned copy of `clean`: eval and training forwards,
/// backward of a random gradient (input and parameter gradients), and for
/// MaxPool the backward of an index-tagged gradient.
void digest_leaf(nn::Layer& leaf, const Tensor& clean, util::Rng& rng,
                 Parts& parts) {
  Tensor x = clean;
  poison(x);
  const bool is_pool = dynamic_cast<nn::MaxPool2d*>(&leaf) != nullptr;
  if (is_pool) poison_pool_windows(x);
  parts["layers.eval"].add(leaf.forward(x, /*training=*/false));
  const Tensor y = leaf.forward(x, /*training=*/true);
  parts["layers.train"].add(y);
  leaf.zero_grad();
  parts["layers.dx"].add(leaf.backward(Tensor::randn(y.shape(), rng)));
  for (const Tensor* g : leaf.grads()) parts["layers.grads"].add(*g);
  if (is_pool) {
    Tensor tagged(y.shape());
    for (std::size_t j = 0; j < tagged.numel(); ++j) {
      tagged.data()[j] = static_cast<float>(j + 1);
    }
    parts["pool.argmax"].add(leaf.backward(tagged));
  }
}

/// Walks a sequential model's leaves in order, each fed the clean training
/// activation of the leaf before it.
void digest_chain(nn::Model& model, const Tensor& input, util::Rng& rng,
                  Parts& parts) {
  Tensor h = input;
  for (nn::Layer* leaf : model.leaves()) {
    digest_leaf(*leaf, h, rng, parts);
    h = leaf->forward(h, /*training=*/true);
  }
}

/// Model-level parts: eval and training logits, then parameter gradients
/// from the softmax cross-entropy gradient.
void digest_model(nn::Model& model, const Tensor& x, Parts& parts) {
  std::vector<int> labels(static_cast<std::size_t>(x.dim(0)));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    labels[i] = static_cast<int>(i % 3);
  }
  parts["model.eval"].add(model.forward(x, /*training=*/false));
  model.zero_grad();
  const Tensor logits = model.forward(x, /*training=*/true);
  parts["model.train"].add(logits);
  Tensor dlogits;
  tensor::softmax_cross_entropy(logits, labels, dlogits);
  model.backward(dlogits);
  for (const nn::ParamRef& ref : model.param_refs()) {
    parts["model.grads"].add(*ref.grad);
  }
}

/// Clean input: normal entries with -0.0 and exact zeros sprinkled in.
Tensor model_input(const models::InputSpec& in, std::uint64_t seed,
                   int batch = kBatch) {
  util::Rng rng(seed);
  Tensor x = Tensor::randn({batch, in.channels, in.height, in.width}, rng);
  for (std::size_t i = 0; i < x.numel(); i += 37) {
    x.data()[i] = (i / 37) % 2 == 0 ? -0.0F : 0.0F;
  }
  return x;
}

/// Model parts, then (for sequential models) the leaf chain, each once
/// unmasked and once under third_off_mask.
Parts model_parts(const models::ModelSpec& spec, bool sequential) {
  nn::Model model = spec.build(7);
  const Tensor x = model_input(spec.input, 8);
  util::Rng rng(9);
  Parts parts;
  for (int masked = 0; masked < 2; ++masked) {
    if (masked) model.set_neuron_mask(third_off_mask(model.neuron_total()));
    digest_model(model, x, parts);
    if (sequential) digest_chain(model, x, rng, parts);
  }
  // Above eight samples Conv2d reduces dW over fixed chunks of several
  // samples, a different summation order from the per-sample one.
  Parts wide;
  digest_model(model, model_input(spec.input, 11, kWideBatch), wide);
  parts["model.grads16"] = wide["model.grads"];
  return parts;
}

struct Pin {
  const char* model;
  const char* part;
  std::uint64_t scalar;
  std::uint64_t avx2;
};

// Recorded at c8dc84c; never re-record.
const Pin kPins[] = {
    {"LeNet", "model.eval", 0xf97739a92761fe5fULL,
     0x187e419852c98611ULL},
    {"LeNet", "model.train", 0xf97739a92761fe5fULL,
     0x187e419852c98611ULL},
    {"LeNet", "model.grads", 0xdac24fbb0669cacfULL,
     0x80c7308a70420a05ULL},
    {"LeNet", "model.grads16", 0x2f8b88fbf79a3ee4ULL,
     0xea3cdebf670cfae9ULL},
    {"LeNet", "layers.eval", 0x59e120b7d5fcbec8ULL,
     0x7163d40575c15421ULL},
    {"LeNet", "layers.train", 0x41ee5510c579a6c4ULL,
     0xd3c92ccb895a61c5ULL},
    {"LeNet", "layers.dx", 0x502ac63c9eb25c8aULL,
     0x3be0f69a9dd37936ULL},
    {"LeNet", "layers.grads", 0xd0259fa9fa376570ULL,
     0xd73f65cf4d85c54aULL},
    {"LeNet", "pool.argmax", 0xcfbd0fe8332adf4dULL,
     0xcfbd0fe8332adf4dULL},
    {"AlexNet-lite", "model.eval", 0x96f93a9f0a849fa6ULL,
     0xafa7d34ec943b1caULL},
    {"AlexNet-lite", "model.train", 0x96f93a9f0a849fa6ULL,
     0xafa7d34ec943b1caULL},
    {"AlexNet-lite", "model.grads", 0x9114633b2e0bbda1ULL,
     0xba62b5e3823f8f58ULL},
    {"AlexNet-lite", "model.grads16", 0x51cd5c72ec222786ULL,
     0xc2906cfdbd26dbacULL},
    {"AlexNet-lite", "layers.eval", 0x53cae7ace4314343ULL,
     0x5ae6b2e97ae1a758ULL},
    {"AlexNet-lite", "layers.train", 0xed2ffaba0a14b1ffULL,
     0x4b97151319ffdb90ULL},
    {"AlexNet-lite", "layers.dx", 0x9b0c6f3007618316ULL,
     0x6817312e15612209ULL},
    {"AlexNet-lite", "layers.grads", 0xa5e3a808839e8de0ULL,
     0x96a83e4e4f217812ULL},
    {"AlexNet-lite", "pool.argmax", 0x826814499fdef2d1ULL,
     0x826814499fdef2d1ULL},
    {"ResNet18-lite", "model.eval", 0x45bb47dbb56b0307ULL,
     0x27095f394cb518ecULL},
    {"ResNet18-lite", "model.train", 0x9964b9a22b433ab7ULL,
     0x973eb7febf43054ULL},
    {"ResNet18-lite", "model.grads", 0xb0d204ce0b7fce54ULL,
     0x439ee5a324493afULL},
    {"ResNet18-lite", "model.grads16", 0x2b74365875e22772ULL,
     0x7111ab2049fc31b5ULL},
    {"ResNet18-lite", "layers.eval", 0xa4899525bda8b6acULL,
     0xb93044f665a581e2ULL},
    {"ResNet18-lite", "layers.train", 0xa4899525bda8b6acULL,
     0xb93044f665a581e2ULL},
    {"ResNet18-lite", "layers.dx", 0x5cd227c194a78933ULL,
     0xf3a66240bbae8fbeULL},
    {"ResNet18-lite", "layers.grads", 0x991aa259ab6b71ecULL,
     0x7a446e1131628a1fULL},
    {"MobileNet-lite", "model.eval", 0x39a0cd7b54f31ce9ULL,
     0x26848f75938a8d92ULL},
    {"MobileNet-lite", "model.train", 0x39a0cd7b54f31ce9ULL,
     0x26848f75938a8d92ULL},
    {"MobileNet-lite", "model.grads", 0x85b01db800dd61e7ULL,
     0xf0398cba9eae40ddULL},
    {"MobileNet-lite", "model.grads16", 0xee9a892c07daefc5ULL,
     0xefad1a3e4a01753aULL},
    {"MobileNet-lite", "layers.eval", 0xe009b67c6c9e883eULL,
     0x8a54f7fd60472732ULL},
    {"MobileNet-lite", "layers.train", 0x44e88953d29c8766ULL,
     0x8e8111f4707700b6ULL},
    {"MobileNet-lite", "layers.dx", 0x8c2e32928ca8abe1ULL,
     0xc2d9d628eb15dcd6ULL},
    {"MobileNet-lite", "layers.grads", 0xe5fdb38cdf9f2567ULL,
     0xd4e9895308f2ba7aULL},
    // LeNet-16: recorded at ed23d9d; never re-record.
    {"LeNet-16", "model.eval", 0xb74cda334d43be72ULL,
     0xa5099901cebfd2dbULL},
    {"LeNet-16", "model.train", 0xb74cda334d43be72ULL,
     0xa5099901cebfd2dbULL},
    {"LeNet-16", "model.grads", 0xd3017b86f9f35d38ULL,
     0x74ceb8c94a5e5da3ULL},
    {"LeNet-16", "model.grads16", 0xfc3a3197ed0e0d6aULL,
     0x741ab0820e34bb4ULL},
    {"LeNet-16", "layers.eval", 0x7beb51dccca227f5ULL,
     0x8ea5ca08ccbe4bc4ULL},
    {"LeNet-16", "layers.train", 0x57e4a4d03cdd9875ULL,
     0x55759cb75832fcf4ULL},
    {"LeNet-16", "layers.dx", 0x8ae38ffd943db202ULL,
     0xdebf9363a342510aULL},
    {"LeNet-16", "layers.grads", 0xcdaa3ba68ec3b98bULL,
     0xe0e1cc68ab46caa6ULL},
    {"LeNet-16", "pool.argmax", 0xe8d4c4977a106725ULL,
     0xe8d4c4977a106725ULL},
};

class LayerDigestTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kAvx2 && !tensor::backend::avx2_available()) {
      GTEST_SKIP() << "AVX2+FMA not available on this CPU or build";
    }
    tensor::backend::set_kernel_backend(GetParam());
  }
  void TearDown() override {
    tensor::backend::clear_kernel_backend_override();
  }

  /// Compares every computed part with its pin; each part must be pinned.
  void expect_pinned(const std::string& model, const Parts& parts) {
    std::size_t pinned = 0;
    for (const Pin& pin : kPins) {
      if (model != pin.model) continue;
      ++pinned;
      const auto it = parts.find(pin.part);
      ASSERT_NE(it, parts.end()) << model << " " << pin.part;
      const std::uint64_t want =
          GetParam() == Backend::kAvx2 ? pin.avx2 : pin.scalar;
      const std::uint64_t got = it->second.digest();
      EXPECT_EQ(got, want) << model << " " << pin.part << " 0x" << std::hex
                           << got;
    }
    EXPECT_EQ(pinned, parts.size()) << model << ": unpinned parts";
  }
};

TEST_P(LayerDigestTest, LeNet) {
  // k5 pad 2, then k5 pad 0; two 2x2/stride-2 pools.
  expect_pinned("LeNet", model_parts(models::lenet_spec(), true));
}

TEST_P(LayerDigestTest, LeNet16) {
  // The long-tail population's model: conv2 sees a 6x8x8 input, so its dW
  // GEMM reduces over a 16-float plane (k < 32, no tail) and the Dense
  // stack runs 64 -> 120 -> 84 -> 10.
  expect_pinned("LeNet-16",
                model_parts(models::lenet_spec({1, 16, 16, 10}), true));
}

TEST_P(LayerDigestTest, AlexNetLite) {
  // Five k3 pad-1 convs, three 2x2/stride-2 pools: the testbed's model.
  expect_pinned("AlexNet-lite",
                model_parts(models::alexnet_lite_spec(), true));
}

TEST_P(LayerDigestTest, ResNet18Lite) {
  // Residual blocks are not a chain, so the layer parts run standalone
  // convs with the stage-2 and stage-4 geometries: 3x3 stride 2 pad 1 and
  // the 1x1 stride-2 projection.
  Parts parts = model_parts(models::resnet18_lite_spec(), false);
  util::Rng rng(10);
  nn::Conv2d stage2(8, 16, 16, 16, 3, 2, 1, &rng);
  nn::Conv2d proj(8, 16, 16, 16, 1, 2, 0, &rng, /*maskable=*/false);
  nn::Conv2d stage4(32, 4, 4, 64, 3, 2, 1, &rng);
  for (int masked = 0; masked < 2; ++masked) {
    for (nn::Conv2d* conv : {&stage2, &proj, &stage4}) {
      const auto& g = conv->geometry();
      if (masked && conv->neuron_count() > 0) {
        conv->set_mask(third_off_mask(conv->neuron_count()));
      }
      const Tensor x =
          Tensor::randn({kBatch, g.in_channels, g.in_h, g.in_w}, rng);
      digest_leaf(*conv, x, rng, parts);
    }
  }
  expect_pinned("ResNet18-lite", parts);
}

TEST_P(LayerDigestTest, MobileNetLite) {
  // Sequential: 3x3 stem, depthwise stride 1/2 and the pointwise 1x1 convs.
  expect_pinned("MobileNet-lite",
                model_parts(models::mobilenet_lite_spec(), true));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, LayerDigestTest,
    ::testing::Values(Backend::kScalar, Backend::kAvx2),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(info.param == Backend::kAvx2 ? "avx2" : "scalar");
    });

}  // namespace
}  // namespace helios
