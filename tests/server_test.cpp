#include <gtest/gtest.h>

#include "fl/server.h"
#include "test_support.h"

namespace helios::fl {
namespace {

nn::Model ref_model(std::uint64_t seed = 3) {
  return models::make_mlp({1, 4, 4, 3}, seed, 5);
}

ClientUpdate update_with(const std::vector<float>& params,
                         std::size_t samples,
                         std::vector<std::uint8_t> mask = {}) {
  ClientUpdate u;
  u.params = params;
  u.sample_count = samples;
  u.trained_mask = std::move(mask);
  return u;
}

TEST(Server, InitialGlobalMatchesReference) {
  nn::Model m = ref_model();
  auto expected = m.params_flat();
  Server server(std::move(m));
  EXPECT_EQ(server.global(), expected);
}

TEST(Server, FullUpdatesAverageWithSampleWeights) {
  Server server(ref_model());
  const std::size_t p = server.param_count();
  ClientUpdate a = update_with(std::vector<float>(p, 1.0F), 10);
  ClientUpdate b = update_with(std::vector<float>(p, 4.0F), 30);
  std::vector<ClientUpdate> ups{a, b};
  server.aggregate(ups, {});
  // (10*1 + 30*4) / 40 = 3.25
  for (float v : server.global()) EXPECT_NEAR(v, 3.25F, 1e-5F);
}

TEST(Server, PartialUpdateOnlyTouchesTrainedNeurons) {
  Server server(ref_model());
  const auto before = server.global();
  const std::size_t p = server.param_count();
  const int m = server.neuron_total();
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(m), 0);
  mask[1] = 1;
  std::vector<ClientUpdate> ups{
      update_with(std::vector<float>(p, 7.0F), 10, mask)};
  server.aggregate(ups, {});
  const auto& after = server.global();
  const auto& neurons = server.reference_model().neurons();
  // Neuron 1 slices moved to 7; other neuron-owned params unchanged;
  // common (head) params moved to 7 as well.
  std::vector<bool> owned(p, false), of_neuron1(p, false);
  for (int j = 0; j < m; ++j) {
    for (const nn::FlatSlice& s : neurons[static_cast<std::size_t>(j)].slices) {
      for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
        owned[f] = true;
        if (j == 1) of_neuron1[f] = true;
      }
    }
  }
  for (std::size_t f = 0; f < p; ++f) {
    if (of_neuron1[f] || !owned[f]) {
      EXPECT_NEAR(after[f], 7.0F, 1e-5F);
    } else {
      EXPECT_EQ(after[f], before[f]);
    }
  }
}

TEST(Server, UntouchedNeuronsKeepGlobalWhenAllPartial) {
  Server server(ref_model());
  const auto before = server.global();
  const std::size_t p = server.param_count();
  const int m = server.neuron_total();
  std::vector<std::uint8_t> mask_a(static_cast<std::size_t>(m), 0);
  std::vector<std::uint8_t> mask_b(static_cast<std::size_t>(m), 0);
  mask_a[0] = 1;
  mask_b[2] = 1;
  std::vector<ClientUpdate> ups{
      update_with(std::vector<float>(p, 1.0F), 10, mask_a),
      update_with(std::vector<float>(p, 5.0F), 10, mask_b)};
  server.aggregate(ups, {});
  // Neuron 1 (trained by nobody) keeps the old global values.
  const auto& neurons = server.reference_model().neurons();
  for (const nn::FlatSlice& s : neurons[1].slices) {
    for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
      EXPECT_EQ(server.global()[f], before[f]);
    }
  }
}

TEST(Server, HeteroWeightsFavorCompleteModels) {
  Server server(ref_model());
  const std::size_t p = server.param_count();
  const int m = server.neuron_total();
  // Both devices train neuron 0; device B trains only neuron 0 (partial),
  // device A trains everything. Same sample counts.
  std::vector<std::uint8_t> mask_b(static_cast<std::size_t>(m), 0);
  mask_b[0] = 1;
  std::vector<ClientUpdate> ups{
      update_with(std::vector<float>(p, 0.0F), 10),
      update_with(std::vector<float>(p, 10.0F), 10, mask_b)};
  AggOptions plain;
  Server s1(ref_model());
  s1.aggregate(ups, plain);
  AggOptions hetero;
  hetero.hetero_volume_weights = true;
  Server s2(ref_model());
  s2.aggregate(ups, hetero);
  // On neuron 0's parameters, hetero weighting pulls the average toward the
  // full-model device (value 0), i.e. below the plain average.
  const auto& neurons = s2.reference_model().neurons();
  const nn::FlatSlice s0 = neurons[0].slices[0];
  EXPECT_LT(s2.global()[s0.offset], s1.global()[s0.offset]);
  // Eq. 10 weights the whole update: the common head bias moves toward the
  // full-model device just as neuron 0's parameters do.
  const std::size_t last = p - 1;  // head bias is the final parameter
  EXPECT_LT(s2.global()[last], s1.global()[last]);
  EXPECT_FLOAT_EQ(s2.global()[last], s2.global()[s0.offset]);
  // Literal Eq. 10 (damping 1.0, whole update): the straggler is suppressed
  // even harder on neuron 0.
  AggOptions literal;
  literal.hetero_volume_weights = true;
  literal.alpha_damping = 1.0;
  Server s3(ref_model());
  s3.aggregate(ups, literal);
  EXPECT_LT(s3.global()[s0.offset], s1.global()[s0.offset]);
  EXPECT_THROW(
      [&] {
        AggOptions bad;
        bad.alpha_damping = 1.5;
        Server s4(ref_model());
        s4.aggregate(ups, bad);
      }(),
      std::invalid_argument);
}

TEST(Server, NaiveMergeDilutesWithStaleValues) {
  // per_neuron_merge=false (the S.T. Only ablation): a straggler's stale
  // untrained parameters enter the average and pull it toward the old
  // global value.
  Server server(ref_model());
  const std::size_t p = server.param_count();
  const int m = server.neuron_total();
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(m), 0);
  mask[0] = 1;
  // The straggler reports stale zeros everywhere except neuron 0.
  ClientUpdate partial = update_with(std::vector<float>(p, 0.0F), 10, mask);
  ClientUpdate full = update_with(std::vector<float>(p, 8.0F), 10);
  std::vector<ClientUpdate> ups{full, partial};
  AggOptions naive;
  naive.per_neuron_merge = false;
  server.aggregate(ups, naive);
  // Neuron 1 (untouched by the straggler) is diluted to 4 instead of 8.
  const auto& neurons = server.reference_model().neurons();
  const nn::FlatSlice s1 = neurons[1].slices[0];
  EXPECT_NEAR(server.global()[s1.offset], 4.0F, 1e-5F);
  // With the per-neuron merge, it would take the full device's value.
  Server server2(ref_model());
  server2.aggregate(ups, {});
  EXPECT_NEAR(server2.global()[s1.offset], 8.0F, 1e-5F);
}

TEST(Server, MixInterpolates) {
  Server server(ref_model());
  const std::size_t p = server.param_count();
  server.set_global(std::vector<float>(p, 2.0F));
  ClientUpdate u = update_with(std::vector<float>(p, 6.0F), 1);
  server.mix(u, 0.25);
  for (float v : server.global()) EXPECT_NEAR(v, 3.0F, 1e-6F);
  EXPECT_THROW(server.mix(u, 1.5), std::invalid_argument);
}

TEST(Server, AggregateValidatesSizes) {
  Server server(ref_model());
  std::vector<ClientUpdate> bad{update_with(std::vector<float>(3, 1.0F), 1)};
  EXPECT_THROW(server.aggregate(bad, {}), std::invalid_argument);
  std::vector<ClientUpdate> bad_mask{update_with(
      std::vector<float>(server.param_count(), 1.0F), 1, {1, 0})};
  EXPECT_THROW(server.aggregate(bad_mask, {}), std::invalid_argument);
}

TEST(Server, EmptyAggregateIsNoOp) {
  Server server(ref_model());
  const auto before = server.global();
  server.aggregate({}, {});
  EXPECT_EQ(server.global(), before);
}

TEST(Server, EvaluateAccuracyInRange) {
  Server server(ref_model());
  auto test = helios::testing::tiny_dataset(30, 3, 1, 4);
  const double acc = server.evaluate_accuracy(test);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

}  // namespace
}  // namespace helios::fl
