// The synchronous round contract, checked for every synchronous strategy on
// a lazy, sampled long-tail population with telemetry on and the round
// fanned out across 4 threads:
//
//   1. the devices with a journal `train` event in a round are exactly the
//      round's planned cohort (for Syn. FL with C < 1: the strategy's own
//      subsample of that cohort, of the expected size);
//   2. every cycle emits one journal `round` event and one `*.cycle` span;
//   3. a round whose roster is entirely dead still records a finite loss.
//
// Before the round driver existed, CompressedSyncFL failed all three: it
// iterated fleet.active_clients() instead of the round roster (training the
// whole population, ignoring the sampler, and never stamping its train
// events with the cycle), emitted no round event or cycle span, and divided
// its loss by the roster size unguarded (NaN on an empty roster). Syn. FL
// with C < 1 threw on an empty roster.
//
// The asynchronous event engine (Asyn. FL, AFO) has its own roster rules,
// checked at the end of this file: a device added between two run_range
// calls is scheduled on the live global model at the next call, through the
// same sampler gate as every other device, and a departed reference device
// hands recording to a survivor.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/helios_strategy.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/baselines.h"
#include "fl/compression.h"
#include "fl/fedprox.h"
#include "fl/sync.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

constexpr int kDevices = 48;
constexpr int kCycles = 3;

struct ThreadGuard {
  ~ThreadGuard() { util::set_global_threads(0); }
};

struct ContractCase {
  const char* kind;
  /// Syn. FL's own participation fraction over the sampled cohort.
  double participation = 1.0;
};

std::string case_name(const ContractCase& c) {
  return std::string(c.kind) + (c.participation < 1.0 ? "_c05" : "");
}

// Stable test names: gtest would otherwise print the raw bytes (a pointer).
void PrintTo(const ContractCase& c, std::ostream* os) { *os << case_name(c); }

std::unique_ptr<fl::Strategy> make_strategy(const ContractCase& c) {
  const std::string kind = c.kind;
  if (kind == "helios") {
    return std::make_unique<core::HeliosStrategy>(core::HeliosConfig{});
  }
  if (kind == "st_only") {
    core::HeliosConfig cfg;
    cfg.hetero_aggregation = false;
    return std::make_unique<core::HeliosStrategy>(cfg);
  }
  if (kind == "sync") return std::make_unique<fl::SyncFL>(c.participation);
  if (kind == "fedprox") return std::make_unique<fl::FedProx>();
  if (kind == "random") return std::make_unique<fl::RandomSubmodel>();
  if (kind == "static") return std::make_unique<fl::StaticPrune>();
  if (kind == "topk25") return std::make_unique<fl::CompressedSyncFL>(0.25);
  throw std::invalid_argument("unknown strategy kind " + kind);
}

/// Lazy mobile_longtail with the slowest quarter flagged, profiled targets
/// and a ~1/8 cohort.
struct SampledPopulation {
  sim::CohortSampler sampler;
  fl::Fleet fleet;

  SampledPopulation()
      : sampler(options()), fleet(sim::build_fleet(population())) {
    const core::StragglerReport report =
        core::StragglerIdentifier::time_based(fleet, kDevices / 4);
    core::StragglerIdentifier::apply(fleet, report);
    core::TargetDeterminer::assign_profiled(fleet, report);
    fleet.set_sampler(&sampler);
  }
  ~SampledPopulation() { fleet.set_sampler(nullptr); }

  static sim::CohortSampler::Options options() {
    sim::CohortSampler::Options o;
    o.fraction = 0.125;
    o.seed = 23;
    return o;
  }
  static sim::PopulationGenerator population() {
    sim::PopulationConfig cfg = sim::mobile_longtail(kDevices);
    cfg.lazy_data = true;
    return sim::PopulationGenerator(cfg);
  }
};

class RoundContractTest : public ::testing::TestWithParam<ContractCase> {};

TEST_P(RoundContractTest, TrainersAreTheCohortAndEachCycleIsRecordedOnce) {
  ThreadGuard guard;
  util::set_global_threads(4);
  const ContractCase& c = GetParam();
  obs::TelemetryConfig tcfg;
  tcfg.journal = true;
  obs::TelemetrySink sink(tcfg);
  SampledPopulation pop;
  pop.fleet.set_telemetry(&sink);
  make_strategy(c)->run(pop.fleet, kCycles);
  pop.fleet.set_telemetry(nullptr);
  sink.flush();

  std::istringstream journal(sink.journal_text());
  std::map<int, std::set<int>> trained, skipped;
  std::map<int, int> round_events;
  for (const obs::JournalEvent& e : obs::read_journal(journal)) {
    if (e.type == "train") trained[e.round].insert(e.device);
    if (e.type == "skip") skipped[e.round].insert(e.device);
    if (e.type == "round") ++round_events[e.round];
  }
  std::map<int, int> cycle_spans;
  const util::JsonValue trace = util::JsonValue::parse(sink.trace_text());
  for (const util::JsonValue& ev : trace.items()) {
    const util::JsonValue* ph = ev.find("ph");
    const util::JsonValue* name = ev.find("name");
    if (ph == nullptr || name == nullptr || ph->as_string() != "B") continue;
    const std::string& n = name->as_string();
    if (n.size() < 6 || n.compare(n.size() - 6, 6, ".cycle") != 0) continue;
    const util::JsonValue* args = ev.find("args");
    const util::JsonValue* cycle =
        args != nullptr ? args->find("cycle") : nullptr;
    ASSERT_NE(cycle, nullptr) << n << " span without a cycle argument";
    ++cycle_spans[static_cast<int>(cycle->as_number())];
  }

  for (int r = 0; r < kCycles; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    std::set<int> cohort;
    for (int d = 0; d < kDevices; ++d) {
      if (skipped[r].count(d) == 0) cohort.insert(d);
    }
    ASSERT_FALSE(cohort.empty());
    EXPECT_LT(cohort.size(), static_cast<std::size_t>(kDevices));
    if (c.participation >= 1.0) {
      EXPECT_EQ(trained[r], cohort);
    } else {
      for (int d : trained[r]) EXPECT_EQ(cohort.count(d), 1u) << d;
      const auto expected = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(
                 c.participation * static_cast<double>(cohort.size()))));
      EXPECT_EQ(trained[r].size(), expected);
    }
    EXPECT_EQ(round_events[r], 1);
    EXPECT_EQ(cycle_spans[r], 1);
  }
  EXPECT_EQ(round_events.size(), static_cast<std::size_t>(kCycles));
  EXPECT_EQ(cycle_spans.size(), static_cast<std::size_t>(kCycles));
}

TEST_P(RoundContractTest, AllDeadRosterRecordsAFiniteLoss) {
  SampledPopulation pop;
  for (auto& client : pop.fleet.clients()) client->set_active(false);
  const fl::RunResult r = make_strategy(GetParam())->run(pop.fleet, 2);
  ASSERT_EQ(r.rounds.size(), 2u);
  for (const fl::RoundRecord& rec : r.rounds) {
    EXPECT_TRUE(std::isfinite(rec.mean_train_loss)) << rec.cycle;
    EXPECT_TRUE(std::isfinite(rec.virtual_time)) << rec.cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SyncStrategies, RoundContractTest,
    ::testing::Values(ContractCase{"helios"}, ContractCase{"st_only"},
                      ContractCase{"sync"}, ContractCase{"sync", 0.5},
                      ContractCase{"fedprox"}, ContractCase{"random"},
                      ContractCase{"static"}, ContractCase{"topk25"}),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return case_name(info.param);
    });

// A device admitted mid-run (churn) must train under the same proximal term
// as the devices present at cycle 0.
TEST(FedProxChurnTest, MidRunJoinerTrainsWithTheProximalTerm) {
  const sim::PopulationGenerator pop(sim::paper_4dev());
  fl::Fleet fleet = sim::build_fleet(pop);
  const float mu = 0.05F;
  fl::FedProx strategy(mu);
  fl::RunResult result;
  result.method = strategy.name();
  strategy.run_range(fleet, result, 0, 2);
  fl::Client& joiner = sim::add_device(fleet, pop, pop.size());
  strategy.run_range(fleet, result, 2, 3);
  EXPECT_EQ(joiner.cycles_completed(), 1);
  EXPECT_EQ(joiner.config().proximal_mu, mu);
  for (auto& client : fleet.clients()) {
    EXPECT_EQ(client->config().proximal_mu, mu) << client->id();
  }
}

// ---- Asynchronous event engine: joiners and departures ----------------------

struct ChurnCase {
  const char* kind;  ///< "async" or "afo"
  bool sampled;      ///< CohortSampler at fraction 1.0 attached
};

std::string case_name(const ChurnCase& c) {
  return std::string(c.kind) + (c.sampled ? "_sampled" : "_unsampled");
}

void PrintTo(const ChurnCase& c, std::ostream* os) { *os << case_name(c); }

/// Lazy mobile_longtail(8), optionally with a fraction-1.0 sampler: every
/// device is selected, so the checks do not depend on cohort draws while
/// the sampler gate is still exercised.
class AsyncChurnTest : public ::testing::TestWithParam<ChurnCase> {
 protected:
  AsyncChurnTest()
      : pop_(population()),
        sampler_(sampler_options()),
        fleet_(sim::build_fleet(pop_)) {
    if (GetParam().sampled) fleet_.set_sampler(&sampler_);
    if (std::string(GetParam().kind) == "afo") {
      strategy_ = std::make_unique<fl::Afo>();
    } else {
      strategy_ = std::make_unique<fl::AsyncFL>();
    }
    result_.method = strategy_->name();
  }
  ~AsyncChurnTest() override { fleet_.set_sampler(nullptr); }

  static sim::PopulationGenerator population() {
    sim::PopulationConfig cfg = sim::mobile_longtail(8);
    cfg.lazy_data = true;
    return sim::PopulationGenerator(cfg);
  }
  static sim::CohortSampler::Options sampler_options() {
    sim::CohortSampler::Options o;
    o.fraction = 1.0;
    o.seed = 23;
    return o;
  }

  const sim::PopulationGenerator pop_;
  sim::CohortSampler sampler_;
  fl::Fleet fleet_;
  std::unique_ptr<fl::Strategy> strategy_;
  fl::RunResult result_;
};

// Three devices join between two run_range calls. Each must be scheduled on
// the live global model and complete a cycle within the next 6 recorded
// rounds.
TEST_P(AsyncChurnTest, JoinersCompleteACycleWithinSixRounds) {
  strategy_->run_range(fleet_, result_, 0, 2);
  std::vector<fl::Client*> joiners;
  for (int j = 0; j < 3; ++j) {
    joiners.push_back(
        &sim::add_device(fleet_, pop_, static_cast<int>(fleet_.size())));
  }
  strategy_->run_range(fleet_, result_, 2, 8);

  ASSERT_EQ(result_.rounds.size(), 8u);
  for (const fl::Client* joiner : joiners) {
    EXPECT_GE(joiner->cycles_completed(), 1) << "joiner " << joiner->id();
  }
}

// The reference device (the first capable one) departs between two
// run_range calls with no network session attached, the way
// sim::ChurnProcess deactivates a device. Recording must re-anchor on a
// survivor rather than run on with no device left to record a round.
TEST_P(AsyncChurnTest, DepartedReferenceReanchorsRecording) {
  fl::Client* reference = fleet_.capable().front();
  strategy_->run_range(fleet_, result_, 0, 2);
  reference->set_active(false);
  reference->hibernate();
  strategy_->run_range(fleet_, result_, 2, 6);

  ASSERT_EQ(result_.rounds.size(), 6u);
  for (std::size_t r = 1; r < result_.rounds.size(); ++r) {
    EXPECT_GE(result_.rounds[r].virtual_time,
              result_.rounds[r - 1].virtual_time);
  }
}

// Every device departs, so the next run_range stops with nothing recorded
// and the dead reference holds no pending completion. A device then joins.
// Recording must re-anchor on the joiner rather than spin on its
// completions forever with a reference that can never record.
TEST_P(AsyncChurnTest, JoinerAfterAllDeadStopRecords) {
  strategy_->run_range(fleet_, result_, 0, 2);
  for (auto& c : fleet_.clients()) {
    c->set_active(false);
    c->hibernate();
  }
  strategy_->run_range(fleet_, result_, 2, 4);
  ASSERT_EQ(result_.rounds.size(), 2u);

  fl::Client& joiner =
      sim::add_device(fleet_, pop_, static_cast<int>(fleet_.size()));
  strategy_->run_range(fleet_, result_, 2, 4);

  ASSERT_EQ(result_.rounds.size(), 4u);
  // The joiner is the only live device, so it recorded both rounds.
  EXPECT_EQ(joiner.cycles_completed(), 2);
  EXPECT_GE(result_.rounds[2].virtual_time, result_.rounds[1].virtual_time);
}

INSTANTIATE_TEST_SUITE_P(
    AsyncStrategies, AsyncChurnTest,
    ::testing::Values(ChurnCase{"async", false}, ChurnCase{"async", true},
                      ChurnCase{"afo", false}, ChurnCase{"afo", true}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) {
      return case_name(info.param);
    });

}  // namespace
}  // namespace helios
