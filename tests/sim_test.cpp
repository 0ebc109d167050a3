// Population-scale simulation subsystem: generated device specs are pure
// functions of (seed, index); the paper-4dev preset reproduces the
// hand-built strategy-test fleet bit-exactly; cohort sampling is
// deterministic across runs and thread counts and joiner-invariant;
// unsampled clients stay unmaterialized (memory-bounded fleets); churn
// events are deterministic on the virtual clock.
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/helios_strategy.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "obs/telemetry.h"
#include "sim/churn.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

// ---- PopulationGenerator ---------------------------------------------------

void expect_same_spec(const sim::DeviceSpec& a, const sim::DeviceSpec& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.profile.name, b.profile.name);
  EXPECT_EQ(a.profile.compute_gflops, b.profile.compute_gflops);
  EXPECT_EQ(a.profile.mem_bandwidth_mbps, b.profile.mem_bandwidth_mbps);
  EXPECT_EQ(a.profile.net_bandwidth_mbps, b.profile.net_bandwidth_mbps);
  EXPECT_EQ(a.profile.memory_mb, b.profile.memory_mb);
  EXPECT_EQ(a.channel.latency_s, b.channel.latency_s);
  EXPECT_EQ(a.channel.jitter_s, b.channel.jitter_s);
  EXPECT_EQ(a.shard_samples, b.shard_samples);
  EXPECT_EQ(a.label_classes, b.label_classes);
  EXPECT_EQ(a.straggler, b.straggler);
  EXPECT_EQ(a.volume, b.volume);
}

TEST(PopulationTest, DeviceSpecsArePureFunctionsOfSeedAndIndex) {
  const sim::PopulationGenerator a(sim::mobile_longtail(16));
  const sim::PopulationGenerator b(sim::mobile_longtail(16));
  // Query out of order, including a joiner index beyond the population
  // size: every spec depends only on (seed, index).
  expect_same_spec(a.device(40), b.device(40));
  for (int i : {15, 0, 7, 3}) {
    expect_same_spec(a.device(i), b.device(i));
  }
  // A different seed draws a different population.
  const sim::PopulationGenerator c(sim::mobile_longtail(16, 9));
  EXPECT_NE(a.device(0).profile.compute_gflops,
            c.device(0).profile.compute_gflops);
}

TEST(PopulationTest, LongTailPopulationIsHeterogeneousAndBounded) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(64));
  const sim::PopulationConfig& cfg = pop.config();
  double min_c = 1e30, max_c = 0.0;
  for (int i = 0; i < pop.size(); ++i) {
    const sim::DeviceSpec d = pop.device(i);
    EXPECT_GT(d.profile.compute_gflops, 0.0) << i;
    min_c = std::min(min_c, d.profile.compute_gflops);
    max_c = std::max(max_c, d.profile.compute_gflops);
    EXPECT_GT(d.shard_samples, 0) << i;
    EXPECT_LE(d.shard_samples, cfg.max_shard_samples) << i;
    ASSERT_EQ(d.label_classes.size(),
              static_cast<std::size_t>(cfg.classes_per_device))
        << i;
    for (int cls : d.label_classes) {
      EXPECT_GE(cls, 0);
      EXPECT_LT(cls, cfg.classes);
    }
  }
  // Log-normal compute with sigma ~0.9 must actually spread the fleet.
  EXPECT_GT(max_c / min_c, 3.0);
}

TEST(PopulationTest, Paper4DevPresetReproducesHandBuiltFleet) {
  const int kCycles = 3;
  fl::RunResult hand, preset;
  std::vector<float> hand_global, preset_global;
  {
    fl::Fleet fleet = testing::make_fleet();
    hand = core::HeliosStrategy(core::HeliosConfig{}).run(fleet, kCycles);
    hand_global.assign(fleet.server().global().begin(),
                       fleet.server().global().end());
  }
  {
    const sim::PopulationGenerator pop(sim::paper_4dev());
    fl::Fleet fleet = sim::build_fleet(pop);
    preset = core::HeliosStrategy(core::HeliosConfig{}).run(fleet, kCycles);
    preset_global.assign(fleet.server().global().begin(),
                         fleet.server().global().end());
  }
  ASSERT_EQ(hand.rounds.size(), preset.rounds.size());
  for (std::size_t i = 0; i < hand.rounds.size(); ++i) {
    EXPECT_EQ(hand.rounds[i].virtual_time, preset.rounds[i].virtual_time);
    EXPECT_EQ(hand.rounds[i].test_accuracy, preset.rounds[i].test_accuracy);
    EXPECT_EQ(hand.rounds[i].mean_train_loss,
              preset.rounds[i].mean_train_loss);
    EXPECT_EQ(hand.rounds[i].upload_mb, preset.rounds[i].upload_mb);
  }
  ASSERT_EQ(hand_global.size(), preset_global.size());
  EXPECT_EQ(std::memcmp(hand_global.data(), preset_global.data(),
                        hand_global.size() * sizeof(float)),
            0)
      << "paper-4dev preset is not bit-identical to the hand-built fleet";
}

// ---- Fleet::find_client ----------------------------------------------------

void expect_ids_index_clients(fl::Fleet& fleet) {
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fl::Client* c = fleet.find_client(static_cast<int>(i));
    ASSERT_EQ(c, &fleet.client(i)) << i;
    EXPECT_EQ(c->id(), static_cast<int>(i));
  }
  EXPECT_EQ(fleet.find_client(static_cast<int>(fleet.size())), nullptr);
}

TEST(FindClientTest, NegativeAndOutOfRangeIdsReturnNull) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(8));
  fl::Fleet fleet = sim::build_fleet(pop);
  for (int id : {-1, -8, std::numeric_limits<int>::min(), 8, 9,
                 std::numeric_limits<int>::max()}) {
    EXPECT_EQ(fleet.find_client(id), nullptr) << id;
  }
}

TEST(FindClientTest, EveryIdMapsToItsClientAfterJoinersAndMoves) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(8));
  fl::Fleet fleet = sim::build_fleet(pop);
  // Joiners extend the dense id range; a departed device stays indexed.
  for (int i = 8; i < 12; ++i) sim::add_device(fleet, pop, i);
  fleet.client(3).set_active(false);
  ASSERT_EQ(fleet.size(), 12u);
  expect_ids_index_clients(fleet);

  fl::Fleet moved(std::move(fleet));
  ASSERT_EQ(moved.size(), 12u);
  expect_ids_index_clients(moved);

  fl::Fleet assigned =
      sim::build_fleet(sim::PopulationGenerator(sim::mobile_longtail(2)));
  assigned = std::move(moved);
  ASSERT_EQ(assigned.size(), 12u);
  expect_ids_index_clients(assigned);
  // Joining after a move keeps the ids dense.
  EXPECT_EQ(sim::add_device(assigned, pop, 12).id(), 12);
  expect_ids_index_clients(assigned);
}

// ---- CohortSampler ---------------------------------------------------------

std::vector<std::vector<int>> cohort_sequence(fl::Fleet& fleet,
                                              const sim::CohortSampler& s,
                                              int rounds) {
  std::vector<std::vector<int>> seq;
  const std::vector<fl::Client*> active = fleet.active_clients();
  for (int r = 0; r < rounds; ++r) {
    std::vector<int> ids;
    for (fl::Client* c : s.sample(active, r)) ids.push_back(c->id());
    seq.push_back(std::move(ids));
  }
  return seq;
}

TEST(CohortSamplerTest, SameSeedSameCohortSequenceAcrossRuns) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(16));
  sim::CohortSampler::Options opts;
  opts.fraction = 0.3;
  opts.seed = 9;
  std::vector<std::vector<int>> first, second;
  {
    fl::Fleet fleet = sim::build_fleet(pop);
    sim::CohortSampler sampler(opts);
    first = cohort_sequence(fleet, sampler, 12);
  }
  {
    fl::Fleet fleet = sim::build_fleet(pop);
    sim::CohortSampler sampler(opts);
    second = cohort_sequence(fleet, sampler, 12);
  }
  EXPECT_EQ(first, second);
  // Sampling actually thins the roster: not every round is everyone.
  bool some_partial = false;
  for (const auto& round : first) some_partial |= round.size() < 16;
  EXPECT_TRUE(some_partial);
}

TEST(CohortSamplerTest, JoinerLeavesExistingMembershipBitIdentical) {
  const sim::PopulationGenerator pop8(sim::mobile_longtail(8));
  const sim::PopulationGenerator pop12(sim::mobile_longtail(12));
  sim::CohortSampler::Options opts;
  opts.fraction = 0.4;
  opts.seed = 21;
  opts.non_empty = false;  // the fallback is the one roster-dependent path
  const sim::CohortSampler sampler(opts);

  fl::Fleet small = sim::build_fleet(pop8);
  fl::Fleet big = sim::build_fleet(pop12);
  const std::vector<fl::Client*> small_active = small.active_clients();
  const std::vector<fl::Client*> big_active = big.active_clients();
  for (int r = 0; r < 20; ++r) {
    std::set<int> small_ids, big_ids;
    for (fl::Client* c : sampler.sample(small_active, r)) {
      small_ids.insert(c->id());
    }
    for (fl::Client* c : sampler.sample(big_active, r)) {
      if (c->id() < 8) big_ids.insert(c->id());
    }
    EXPECT_EQ(small_ids, big_ids) << "round " << r;
  }
}

struct ThreadGuard {
  ~ThreadGuard() { util::set_global_threads(0); }
};

struct Snapshot {
  fl::RunResult result;
  std::vector<float> global;
};

Snapshot run_sampled_with_threads(int threads, int cycles) {
  util::set_global_threads(threads);
  const sim::PopulationGenerator pop(sim::mobile_longtail(12));
  fl::Fleet fleet = sim::build_fleet(pop);
  sim::CohortSampler::Options opts;
  opts.fraction = 0.4;
  opts.seed = 3;
  sim::CohortSampler sampler(opts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);
  core::HeliosStrategy strategy{core::HeliosConfig{}};
  Snapshot snap;
  snap.result = strategy.run(fleet, cycles);
  snap.global.assign(fleet.server().global().begin(),
                     fleet.server().global().end());
  fleet.set_sampler(nullptr);
  return snap;
}

TEST(CohortSamplerTest, SampledRunBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const Snapshot seq = run_sampled_with_threads(1, 3);
  const Snapshot par = run_sampled_with_threads(4, 3);
  ASSERT_EQ(seq.result.rounds.size(), par.result.rounds.size());
  for (std::size_t i = 0; i < seq.result.rounds.size(); ++i) {
    EXPECT_EQ(seq.result.rounds[i].virtual_time,
              par.result.rounds[i].virtual_time)
        << "cycle " << i;
    EXPECT_EQ(seq.result.rounds[i].test_accuracy,
              par.result.rounds[i].test_accuracy)
        << "cycle " << i;
    EXPECT_EQ(seq.result.rounds[i].mean_train_loss,
              par.result.rounds[i].mean_train_loss)
        << "cycle " << i;
  }
  ASSERT_EQ(seq.global.size(), par.global.size());
  EXPECT_EQ(std::memcmp(seq.global.data(), par.global.data(),
                        seq.global.size() * sizeof(float)),
            0)
      << "sampled run differs between thread counts";
}

TEST(CohortSamplerTest, RejectsFractionOutOfRange) {
  sim::CohortSampler::Options opts;
  opts.fraction = 0.0;
  EXPECT_THROW(sim::CohortSampler{opts}, std::invalid_argument);
  opts.fraction = 1.5;
  EXPECT_THROW(sim::CohortSampler{opts}, std::invalid_argument);
}

// ---- Memory-bounded client state -------------------------------------------

TEST(MemoryTest, UnsampledClientsAreNeverMaterialized) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(24));
  fl::Fleet fleet = sim::build_fleet(pop);
  // Building the fleet materializes no replicas at all.
  EXPECT_EQ(fleet.live_replica_bytes(), 0U);
  for (auto& c : fleet.clients()) EXPECT_FALSE(c->materialized());

  sim::CohortSampler::Options opts;
  opts.fraction = 0.15;
  opts.seed = 4;
  sim::CohortSampler sampler(opts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);
  core::HeliosStrategy strategy{core::HeliosConfig{}};
  const fl::RunResult r = strategy.run(fleet, 2);
  ASSERT_EQ(r.rounds.size(), 2U);

  // After the run only the last cohort's replicas are live; the rest of
  // the population was hibernated (or never touched).
  std::size_t materialized = 0;
  for (auto& c : fleet.clients()) materialized += c->materialized() ? 1 : 0;
  EXPECT_GT(materialized, 0U);
  EXPECT_LT(materialized, fleet.size() / 2);
  EXPECT_GT(fleet.live_replica_bytes(), 0U);
  fleet.set_sampler(nullptr);
}

TEST(MemoryTest, HibernatedClientRematerializesBitIdentically) {
  fl::Fleet fleet = testing::make_fleet();
  fl::Client& c = fleet.client(0);
  const std::vector<float> base(fleet.server().global().begin(),
                                fleet.server().global().end());
  const fl::ClientUpdate first =
      c.run_cycle(base, fleet.server().global_buffers(), {});
  c.hibernate();
  EXPECT_FALSE(c.materialized());
  EXPECT_EQ(c.replica_bytes(), 0U);
  // The replica rebuilds from (spec, seed) and the next cycle starts from
  // the same server snapshot: identical update bytes.
  const fl::ClientUpdate again =
      c.run_cycle(base, fleet.server().global_buffers(), {});
  // Note: the data loader keeps advancing across hibernation, so compare
  // against a twin fleet that never hibernated.
  fl::Fleet twin = testing::make_fleet();
  fl::Client& t = twin.client(0);
  const fl::ClientUpdate t_first =
      t.run_cycle(base, twin.server().global_buffers(), {});
  const fl::ClientUpdate t_again =
      t.run_cycle(base, twin.server().global_buffers(), {});
  ASSERT_EQ(first.params.size(), t_first.params.size());
  EXPECT_EQ(std::memcmp(first.params.data(), t_first.params.data(),
                        first.params.size() * sizeof(float)),
            0);
  ASSERT_EQ(again.params.size(), t_again.params.size());
  EXPECT_EQ(std::memcmp(again.params.data(), t_again.params.data(),
                        again.params.size() * sizeof(float)),
            0)
      << "hibernation changed the training trajectory";
}

// ---- ChurnProcess ----------------------------------------------------------

TEST(ChurnTest, ArrivalsAndDeparturesAreDeterministic) {
  auto run_once = [] {
    sim::PopulationConfig cfg = sim::mobile_longtail(4);
    const sim::PopulationGenerator pop(cfg);
    fl::Fleet fleet = sim::build_fleet(pop);
    sim::ChurnOptions copts;
    copts.arrival_rate_per_s = 0.5;
    copts.mean_lifetime_s = 6.0;
    copts.seed = 13;
    copts.max_devices = 10;
    copts.admit_arrivals = false;  // keep the test free of profiling cost
    sim::ChurnProcess churn(pop, copts);
    std::vector<std::size_t> sizes;
    std::vector<int> arrived, departed;
    for (int step = 0; step < 8; ++step) {
      fleet.clock().advance(2.0);
      const sim::RoundChurn rc = churn.step(fleet, step);
      arrived.insert(arrived.end(), rc.arrived.begin(), rc.arrived.end());
      departed.insert(departed.end(), rc.departed.begin(), rc.departed.end());
      sizes.push_back(fleet.size());
    }
    return std::make_tuple(sizes, arrived, departed);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);
  // 16 virtual seconds at 0.5 arrivals/s against a cap of 10: the fleet
  // grew, and 6 s mean lifetimes produced departures.
  const auto& [sizes, arrived, departed] = a;
  EXPECT_GT(arrived.size(), 0U);
  EXPECT_GT(departed.size(), 0U);
  EXPECT_GT(sizes.back(), 4U);
}

TEST(ChurnTest, LifetimesAreJoinerInvariant) {
  sim::ChurnOptions copts;
  copts.mean_lifetime_s = 100.0;
  copts.seed = 55;
  const sim::PopulationGenerator pop4(sim::mobile_longtail(4));
  const sim::PopulationGenerator pop8(sim::mobile_longtail(8));
  fl::Fleet small = sim::build_fleet(pop4);
  fl::Fleet big = sim::build_fleet(pop8);
  sim::ChurnProcess churn_small(pop4, copts);
  sim::ChurnProcess churn_big(pop8, copts);
  churn_small.step(small, 0);
  churn_big.step(big, 0);
  for (int id = 0; id < 4; ++id) {
    EXPECT_EQ(churn_small.death_time(id), churn_big.death_time(id))
        << "device " << id
        << ": population size changed an existing device's lifetime";
  }
}

TEST(ChurnTest, DepartedDevicesLeaveTheRosterAndReleaseMemory) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(6));
  fl::Fleet fleet = sim::build_fleet(pop);
  for (auto& c : fleet.clients()) c->model();  // materialize everyone
  EXPECT_GT(fleet.live_replica_bytes(), 0U);
  sim::ChurnOptions copts;
  copts.mean_lifetime_s = 1.0;  // everyone dies almost immediately
  copts.seed = 2;
  sim::ChurnProcess churn(pop, copts);
  churn.step(fleet, 0);           // schedules every death
  fleet.clock().advance(100.0);   // far past every lifetime
  const sim::RoundChurn rc = churn.step(fleet, 1);
  EXPECT_EQ(rc.departed.size(), 6U);
  EXPECT_TRUE(fleet.active_clients().empty());
  EXPECT_EQ(fleet.live_replica_bytes(), 0U);
}

// ---- Telemetry -------------------------------------------------------------

TEST(SimTelemetryTest, CohortAndChurnMetricsAreEmitted) {
  obs::TelemetrySink telemetry;
  const sim::PopulationGenerator pop(sim::mobile_longtail(8));
  fl::Fleet fleet = sim::build_fleet(pop);
  fleet.set_telemetry(&telemetry);
  sim::CohortSampler::Options opts;
  opts.fraction = 0.5;
  sim::CohortSampler sampler(opts);
  fleet.set_sampler(&sampler);
  fleet.round_roster(0);
  EXPECT_EQ(telemetry.metrics().gauge("helios.sim.population").value(), 8.0);
  EXPECT_GE(telemetry.metrics().counter("helios.sim.sampled_total").value(),
            1.0);

  sim::ChurnOptions copts;
  copts.arrival_rate_per_s = 10.0;  // immediate arrivals
  copts.seed = 1;
  copts.max_devices = 10;
  copts.admit_arrivals = false;
  sim::ChurnProcess churn(pop, copts);
  churn.step(fleet, 1);         // initializes the arrival stream
  fleet.clock().advance(5.0);   // ~50 expected arrivals against a cap of 10
  churn.step(fleet, 2);
  EXPECT_GE(telemetry.metrics().counter("helios.sim.arrivals_total").value(),
            1.0);
  fleet.set_sampler(nullptr);
  fleet.set_telemetry(nullptr);
}

}  // namespace
}  // namespace helios
