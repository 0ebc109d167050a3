#include <gtest/gtest.h>

#include "fl/client.h"
#include "fl/submodel.h"
#include "test_support.h"

namespace helios::fl {
namespace {

models::ModelSpec spec() { return models::mlp_spec({1, 8, 8, 4}, 16); }

Client make_client(int id = 0, std::uint64_t seed = 5) {
  ClientConfig cfg;
  cfg.seed = seed;
  cfg.batch_size = 8;
  cfg.lr = 0.05F;
  return Client(id, spec(), helios::testing::tiny_dataset(40), cfg,
                device::sim_scaled(device::raspberry_pi()));
}

/// A drawn global model to train from: a client's own replica is blank
/// (zero weights) until a cycle loads the global parameters into it.
std::vector<float> drawn_global(std::uint64_t seed) {
  return spec().build(seed).params_flat();
}

TEST(ClientUpdate, TrainedFraction) {
  ClientUpdate u;
  EXPECT_DOUBLE_EQ(u.trained_fraction(10), 1.0);  // empty = full
  u.trained_mask = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(u.trained_fraction(4), 0.5);
}

TEST(Client, RunCycleReturnsConsistentUpdate) {
  Client c = make_client();
  const auto global_init = drawn_global(5);
  ClientUpdate u = c.run_cycle(global_init, c.model().buffers_flat(), {});
  EXPECT_EQ(u.client_id, 0);
  EXPECT_EQ(u.params.size(), c.model().param_count());
  EXPECT_TRUE(u.trained_mask.empty());
  EXPECT_EQ(u.sample_count, 40u);
  EXPECT_GT(u.train_seconds, 0.0);
  EXPECT_GT(u.upload_seconds, 0.0);
  EXPECT_GT(u.mean_loss, 0.0);
  // Training actually moved the parameters.
  EXPECT_NE(u.params, global_init);
}

TEST(Client, RunCycleStartsFromGlobalParams) {
  Client c = make_client(0, 6);
  // Two cycles from the same global with the same loader state are
  // deterministic only if the start point is the global; check the frozen
  // neurons case: masked params must equal the incoming global exactly.
  const auto global = drawn_global(6);
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(c.model().neuron_total()), 0);
  mask[0] = 1;  // only one neuron trains
  ClientUpdate u = c.run_cycle(global, c.model().buffers_flat(), mask);
  const auto& neurons = c.model().neurons();
  for (std::size_t j = 1; j < neurons.size(); ++j) {
    for (const nn::FlatSlice& s : neurons[j].slices) {
      for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
        EXPECT_EQ(u.params[f], global[f]) << "skipped neuron " << j << " moved";
      }
    }
  }
}

TEST(Client, MaskedCycleIsCheaper) {
  Client c = make_client(0, 7);
  const auto global = drawn_global(7);
  const double full_s = c.estimate_cycle_seconds({});
  util::Rng rng(8);
  auto mask = random_volume_mask(c.model(), 0.25, rng);
  const double masked_s = c.estimate_cycle_seconds(mask);
  EXPECT_LT(masked_s, full_s);
  // Upload shrinks too.
  ClientUpdate full_u = c.run_cycle(global, c.model().buffers_flat(), {});
  ClientUpdate masked_u = c.run_cycle(global, c.model().buffers_flat(), mask);
  EXPECT_LT(masked_u.upload_seconds, full_u.upload_seconds);
  EXPECT_LT(masked_u.train_seconds, full_u.train_seconds);
}

TEST(Client, EstimateLeavesModelUnmasked) {
  Client c = make_client(0, 9);
  util::Rng rng(10);
  auto mask = random_volume_mask(c.model(), 0.5, rng);
  c.estimate_cycle_seconds(mask);
  EXPECT_TRUE(c.model().neuron_mask().empty());
}

TEST(Client, TestbenchScalesWithIterations) {
  Client c = make_client(0, 11);
  const double t5 = c.testbench_seconds(5);
  const double t10 = c.testbench_seconds(10);
  EXPECT_GT(t10, t5);
  EXPECT_THROW(c.testbench_seconds(0), std::invalid_argument);
}

TEST(Client, VolumeValidation) {
  Client c = make_client(0, 12);
  EXPECT_DOUBLE_EQ(c.volume(), 1.0);
  c.set_volume(0.4);
  EXPECT_DOUBLE_EQ(c.volume(), 0.4);
  EXPECT_THROW(c.set_volume(0.0), std::invalid_argument);
  EXPECT_THROW(c.set_volume(1.5), std::invalid_argument);
  EXPECT_FALSE(c.is_straggler());
  c.set_straggler(true);
  EXPECT_TRUE(c.is_straggler());
}

TEST(Client, SlowerProfileTakesLonger) {
  ClientConfig cfg;
  cfg.seed = 13;
  Client fast(0, models::mlp_spec({1, 8, 8, 4}, 16),
              helios::testing::tiny_dataset(40), cfg,
              device::sim_scaled(device::edge_server()));
  Client slow(1, models::mlp_spec({1, 8, 8, 4}, 16),
              helios::testing::tiny_dataset(40), cfg,
              device::sim_scaled(device::deeplens_cpu()));
  EXPECT_LT(fast.estimate_cycle_seconds({}), slow.estimate_cycle_seconds({}));
}

}  // namespace
}  // namespace helios::fl
