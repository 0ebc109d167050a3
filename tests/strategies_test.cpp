// Baseline orchestration strategies: invariants of timing, participation
// and aggregation (learning-quality comparisons live in integration_test).
#include <gtest/gtest.h>

#include "fl/afo.h"
#include "fl/async.h"
#include "fl/baselines.h"
#include "fl/sync.h"
#include "test_support.h"

namespace helios::fl {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

TEST(SyncFL, RecordsEveryCycleWithMonotoneTime) {
  Fleet fleet = make_fleet();
  SyncFL strategy;
  const RunResult res = strategy.run(fleet, 5);
  EXPECT_EQ(res.method, "Syn. FL");
  ASSERT_EQ(res.rounds.size(), 5u);
  double prev = 0.0;
  for (const auto& r : res.rounds) {
    EXPECT_GT(r.virtual_time, prev);
    prev = r.virtual_time;
    EXPECT_GE(r.test_accuracy, 0.0);
    EXPECT_LE(r.test_accuracy, 1.0);
  }
}

TEST(SyncFL, RoundTimeDominatedByStraggler) {
  Fleet fleet = make_fleet();
  // Slowest participant (full model on DeepLens CPU) bounds the round time.
  const double straggler_cycle =
      fleet.client(3).estimate_cycle_seconds({});
  SyncFL strategy;
  const RunResult res = strategy.run(fleet, 2);
  EXPECT_GE(res.rounds[0].virtual_time, straggler_cycle * 0.99);
}

TEST(SyncPartialParticipation, SamplesSubsetAndStillLearns) {
  FleetOptions o;
  o.clients = 4;
  o.stragglers = 0;
  o.samples_per_client = 64;
  Fleet fleet = make_fleet(o);
  SyncFL strategy(0.5);
  EXPECT_EQ(strategy.name().substr(0, 10), "Syn. FL (C");
  const RunResult res = strategy.run(fleet, 10);
  EXPECT_EQ(res.rounds.size(), 10u);
  EXPECT_GT(res.final_accuracy(3), 0.35);
  // Half participation -> roughly half the per-cycle upload volume.
  Fleet full_fleet = make_fleet(o);
  const RunResult full = SyncFL().run(full_fleet, 10);
  EXPECT_LT(res.total_upload_mb(), 0.7 * full.total_upload_mb());
}

TEST(SyncPartialParticipation, Validation) {
  EXPECT_THROW(SyncFL(0.0), std::invalid_argument);
  EXPECT_THROW(SyncFL(1.5), std::invalid_argument);
}

TEST(AsyncFL, CapableCyclesAreFasterThanSync) {
  Fleet sync_fleet = make_fleet();
  Fleet async_fleet = make_fleet();
  const RunResult sync_res = SyncFL().run(sync_fleet, 3);
  const RunResult async_res = AsyncFL().run(async_fleet, 3);
  EXPECT_LT(async_res.rounds.back().virtual_time,
            sync_res.rounds.back().virtual_time);
}

TEST(AsyncFL, FixedPeriodNames) {
  EXPECT_EQ(AsyncFL().name(), "Asyn. FL");
  EXPECT_EQ(AsyncFL(2).name(), "Asyn. FL (period 2)");
  EXPECT_THROW(AsyncFL(-1), std::invalid_argument);
  EXPECT_THROW(AsyncFL(0, 0.0), std::invalid_argument);
  EXPECT_THROW(AsyncFL(0, 1.5), std::invalid_argument);
}

TEST(AsyncFL, StaleStragglerMergesDragTheGlobalModel) {
  // The fully-async baseline mixes stale straggler models with a fixed
  // weight; relative to the sync run on the same fleet, the straggler's
  // merge must move the global model toward its (old) snapshot. We simply
  // verify the mechanism runs and records all cycles with advancing time.
  Fleet fleet = make_fleet();
  const RunResult res = AsyncFL().run(fleet, 6);
  ASSERT_EQ(res.rounds.size(), 6u);
  for (std::size_t i = 1; i < res.rounds.size(); ++i) {
    EXPECT_GT(res.rounds[i].virtual_time, res.rounds[i - 1].virtual_time);
  }
}

TEST(AsyncFL, RequiresCapableDevices) {
  FleetOptions o;
  o.clients = 2;
  o.stragglers = 2;
  Fleet fleet = make_fleet(o);
  AsyncFL strategy;
  EXPECT_THROW(strategy.run(fleet, 1), std::logic_error);
}

TEST(AsyncFL, RunsWithFixedPeriod) {
  Fleet fleet = make_fleet();
  const RunResult res = AsyncFL(2).run(fleet, 4);
  EXPECT_EQ(res.rounds.size(), 4u);
}

TEST(Afo, RecordsRequestedCycles) {
  Fleet fleet = make_fleet();
  Afo strategy(0.6, 0.5);
  const RunResult res = strategy.run(fleet, 4);
  EXPECT_EQ(res.method, "AFO");
  ASSERT_EQ(res.rounds.size(), 4u);
  for (std::size_t i = 1; i < res.rounds.size(); ++i) {
    EXPECT_GT(res.rounds[i].virtual_time, res.rounds[i - 1].virtual_time);
  }
}

TEST(Afo, ValidatesParameters) {
  EXPECT_THROW(Afo(0.0), std::invalid_argument);
  EXPECT_THROW(Afo(1.5), std::invalid_argument);
  EXPECT_THROW(Afo(0.5, -1.0), std::invalid_argument);
}

TEST(RandomSubmodel, StragglersUploadPartialMasks) {
  Fleet fleet = make_fleet();
  // Wrap via direct run; verify timing benefits: random submodel rounds are
  // shorter than sync-full rounds because stragglers shrink.
  Fleet sync_fleet = make_fleet();
  const RunResult sync_res = SyncFL().run(sync_fleet, 2);
  const RunResult rnd_res = RandomSubmodel().run(fleet, 2);
  EXPECT_EQ(rnd_res.method, "Random");
  EXPECT_LT(rnd_res.rounds.back().virtual_time,
            sync_res.rounds.back().virtual_time);
}

TEST(StaticPrune, RunsAndIsCheaperThanSync) {
  Fleet fleet = make_fleet();
  Fleet sync_fleet = make_fleet();
  const RunResult sp = StaticPrune().run(fleet, 2);
  const RunResult sync_res = SyncFL().run(sync_fleet, 2);
  EXPECT_EQ(sp.method, "Static Prune");
  EXPECT_LT(sp.rounds.back().virtual_time,
            sync_res.rounds.back().virtual_time);
}

TEST(Metrics, RunResultSummaries) {
  RunResult res;
  res.rounds = {{0, 1.0, 0.2, 1.0},
                {1, 2.0, 0.5, 0.8},
                {2, 3.0, 0.7, 0.6},
                {3, 4.0, 0.8, 0.5}};
  EXPECT_NEAR(res.final_accuracy(2), 0.75, 1e-12);
  EXPECT_EQ(res.cycles_to_accuracy(0.5), 1u);
  EXPECT_DOUBLE_EQ(res.time_to_accuracy(0.5), 2.0);
  EXPECT_EQ(res.cycles_to_accuracy(0.9), RunResult::npos);
  EXPECT_EQ(res.time_to_accuracy(0.9), RunResult::never);
  EXPECT_GT(res.accuracy_variance(4), 0.0);
}

TEST(Metrics, EmptyRunIsSafe) {
  RunResult res;
  EXPECT_EQ(res.final_accuracy(), 0.0);
  EXPECT_EQ(res.cycles_to_accuracy(0.1), RunResult::npos);
  EXPECT_EQ(res.accuracy_variance(), 0.0);
}

TEST(Fleet, CapableAndStragglerPartition) {
  Fleet fleet = make_fleet();
  EXPECT_EQ(fleet.stragglers().size(), 2u);
  EXPECT_EQ(fleet.capable().size(), 2u);
  EXPECT_EQ(fleet.size(), 4u);
}

}  // namespace
}  // namespace helios::fl
