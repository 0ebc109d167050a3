// The threading determinism contract, end to end: the same fleet run under
// HELIOS_THREADS=1 and HELIOS_THREADS=4 must produce bit-identical results
// — identical accuracy traces and identical final global parameters.
#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/helios_strategy.h"
#include "data/synthetic.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/compression.h"
#include "fl/fedprox.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "models/zoo.h"
#include "nn/model.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "sim/sampler.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

struct ThreadGuard {
  ~ThreadGuard() { util::set_global_threads(0); }
};

struct Snapshot {
  fl::RunResult result;
  std::vector<float> global;
  std::vector<float> buffers;
};

template <typename MakeStrategy>
Snapshot run_with_threads(int threads, MakeStrategy make, int cycles,
                          bool ideal_network = false) {
  util::set_global_threads(threads);
  fl::Fleet fleet = testing::make_fleet();
  std::optional<fl::NetworkSession> session;
  if (ideal_network) {
    session.emplace(fleet, net::NetworkOptions{});  // default = kIdeal
  }
  auto strategy = make();
  Snapshot snap;
  snap.result = strategy.run(fleet, cycles);
  snap.global.assign(fleet.server().global().begin(),
                     fleet.server().global().end());
  snap.buffers.assign(fleet.server().global_buffers().begin(),
                      fleet.server().global_buffers().end());
  return snap;
}

void expect_identical(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size());
  for (std::size_t i = 0; i < a.result.rounds.size(); ++i) {
    const fl::RoundRecord& ra = a.result.rounds[i];
    const fl::RoundRecord& rb = b.result.rounds[i];
    EXPECT_EQ(ra.cycle, rb.cycle);
    EXPECT_EQ(ra.virtual_time, rb.virtual_time) << "cycle " << i;
    EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << "cycle " << i;
    EXPECT_EQ(ra.mean_train_loss, rb.mean_train_loss) << "cycle " << i;
    EXPECT_EQ(ra.upload_mb, rb.upload_mb) << "cycle " << i;
  }
  ASSERT_EQ(a.global.size(), b.global.size());
  EXPECT_EQ(std::memcmp(a.global.data(), b.global.data(),
                        a.global.size() * sizeof(float)),
            0)
      << "final global parameters differ between thread counts";
  ASSERT_EQ(a.buffers.size(), b.buffers.size());
  EXPECT_TRUE(testing::bitwise_equal(a.buffers, b.buffers))
      << "final global buffers differ between thread counts";
}

TEST(DeterminismTest, HeliosBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto make = [] { return core::HeliosStrategy(core::HeliosConfig{}); };
  const Snapshot seq = run_with_threads(1, make, 4);
  const Snapshot par = run_with_threads(4, make, 4);
  expect_identical(seq, par);
}

TEST(DeterminismTest, SyncFLBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto make = [] { return fl::SyncFL(); };
  const Snapshot seq = run_with_threads(1, make, 4);
  const Snapshot par = run_with_threads(4, make, 4);
  expect_identical(seq, par);
}

TEST(DeterminismTest, FedProxBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto make = [] { return fl::FedProx(); };
  const Snapshot seq = run_with_threads(1, make, 4);
  const Snapshot par = run_with_threads(4, make, 4);
  expect_identical(seq, par);
}

TEST(DeterminismTest, CompressedSyncFLBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto make = [] { return fl::CompressedSyncFL(0.25); };
  const Snapshot seq = run_with_threads(1, make, 4);
  const Snapshot par = run_with_threads(4, make, 4);
  expect_identical(seq, par);
}

// The default (ideal-channel) NetworkOptions must reproduce the no-network
// results bit-for-bit — frames are encoded, checked and counted, but never
// perturb timing, delivery, or arithmetic — at 1 and 4 threads alike.
TEST(DeterminismTest, HeliosIdealNetworkBitIdenticalToNoNetwork) {
  ThreadGuard guard;
  auto make = [] { return core::HeliosStrategy(core::HeliosConfig{}); };
  const Snapshot plain1 = run_with_threads(1, make, 4);
  const Snapshot net1 = run_with_threads(1, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net1);
  const Snapshot net4 = run_with_threads(4, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net4);
}

TEST(DeterminismTest, SyncFLIdealNetworkBitIdenticalToNoNetwork) {
  ThreadGuard guard;
  auto make = [] { return fl::SyncFL(); };
  const Snapshot plain1 = run_with_threads(1, make, 4);
  const Snapshot net1 = run_with_threads(1, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net1);
  const Snapshot net4 = run_with_threads(4, make, 4, /*ideal_network=*/true);
  expect_identical(plain1, net4);
}

// ---- Asynchronous event engine ---------------------------------------------
// The engine trains each wave of in-flight devices concurrently, while
// delivery, mixing and recording keep event order on the driving thread.

net::NetworkOptions lossy_network() {
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.loss_prob = 0.05;
  return opts;
}

/// Lazy mobile_longtail(64) with a 1/8 cohort sampler over a simulated
/// 5%-loss session: most devices park between rounds and frames get lost.
template <typename MakeStrategy>
Snapshot run_sampled_with_threads(int threads, MakeStrategy make,
                                  int cycles) {
  util::set_global_threads(threads);
  sim::CohortSampler::Options sopts;
  sopts.fraction = 0.125;
  sopts.seed = 17;
  const sim::CohortSampler sampler(sopts);
  fl::Fleet fleet = testing::make_sampled_longtail(sampler);
  fl::NetworkSession session(fleet, lossy_network());
  auto strategy = make();
  Snapshot snap;
  snap.result = strategy.run(fleet, cycles);
  snap.global.assign(fleet.server().global().begin(),
                     fleet.server().global().end());
  snap.buffers.assign(fleet.server().global_buffers().begin(),
                      fleet.server().global_buffers().end());
  return snap;
}

TEST(DeterminismTest, AfoBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto make = [] { return fl::Afo(); };
  expect_identical(run_with_threads(1, make, 6), run_with_threads(4, make, 6));
  expect_identical(run_sampled_with_threads(1, make, 4),
                   run_sampled_with_threads(4, make, 4));
}

TEST(DeterminismTest, AsyncFLBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  auto make = [] { return fl::AsyncFL(); };
  expect_identical(run_with_threads(1, make, 6), run_with_threads(4, make, 6));
  expect_identical(run_sampled_with_threads(1, make, 4),
                   run_sampled_with_threads(4, make, 4));
}

struct JournalRun {
  std::vector<obs::JournalEvent> events;
  std::string dashboard;
};

/// `make()`'s strategy on the test fleet over a session with `network`,
/// with a tracing sink that journals in memory.
template <typename MakeStrategy>
JournalRun journal_with_threads(int threads, MakeStrategy make,
                                const net::NetworkOptions& network) {
  util::set_global_threads(threads);
  obs::TelemetryConfig cfg;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  fl::Fleet fleet = testing::make_fleet();
  fl::NetworkSession session(fleet, network);
  fleet.set_telemetry(&sink);
  auto strategy = make();
  strategy.run(fleet, 6);
  fleet.set_telemetry(nullptr);
  sink.flush();  // closes the journal (run_end)
  JournalRun run;
  std::istringstream is(sink.journal_text());
  run.events = obs::read_journal(is);
  std::ostringstream dash;
  sink.render_dashboard(dash);
  run.dashboard = dash.str();
  return run;
}

/// AFO over a simulated 5%-loss session.
JournalRun afo_journal_with_threads(int threads) {
  return journal_with_threads(
      threads, [] { return fl::Afo(); }, lossy_network());
}

/// Journal lines are flat objects of scalars.
bool same_scalar(const util::JsonValue& a, const util::JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case util::JsonValue::Kind::kNull: return true;
    case util::JsonValue::Kind::kBool: return a.as_bool() == b.as_bool();
    case util::JsonValue::Kind::kNumber:
      return a.as_number() == b.as_number();
    case util::JsonValue::Kind::kString:
      return a.as_string() == b.as_string();
    default: return false;
  }
}

/// Line for line, every field but the wall clock "w", and the dashboards.
void expect_same_journal(const JournalRun& one, const JournalRun& four,
                         const std::string& context) {
  ASSERT_FALSE(one.events.empty()) << context;
  ASSERT_EQ(one.events.size(), four.events.size()) << context;
  for (std::size_t i = 0; i < one.events.size(); ++i) {
    const auto& a = one.events[i].fields.members();
    const auto& b = four.events[i].fields.members();
    ASSERT_EQ(a.size(), b.size()) << context << " event " << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k].first, b[k].first) << context << " event " << i;
      if (a[k].first == "w") continue;
      EXPECT_TRUE(same_scalar(a[k].second, b[k].second))
          << context << " event " << i << " (" << one.events[i].type
          << ") field " << a[k].first;
    }
  }
  EXPECT_EQ(one.dashboard, four.dashboard) << context;
}

// Telemetry is recorded at each completion's pop, in event order and at the
// backdated virtual time, never on the pool workers that trained the wave:
// the journal matches line for line, every field but the wall clock "w".
TEST(DeterminismTest, AsyncJournalIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const JournalRun one = afo_journal_with_threads(1);
  const JournalRun four = afo_journal_with_threads(4);
  ASSERT_FALSE(one.events.empty());
  ASSERT_EQ(one.events.size(), four.events.size());
  for (std::size_t i = 0; i < one.events.size(); ++i) {
    const auto& a = one.events[i].fields.members();
    const auto& b = four.events[i].fields.members();
    ASSERT_EQ(a.size(), b.size()) << "event " << i;
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_EQ(a[k].first, b[k].first) << "event " << i;
      if (a[k].first == "w") continue;
      EXPECT_TRUE(same_scalar(a[k].second, b[k].second))
          << "event " << i << " (" << one.events[i].type << ") field "
          << a[k].first;
    }
  }
  EXPECT_EQ(one.dashboard, four.dashboard);
}

/// The lossy network with int8-per-neuron frames and error feedback: every
/// send writes a residual and records codec telemetry.
net::NetworkOptions lossy_int8_network() {
  net::NetworkOptions opts = lossy_network();
  opts.payload_codec = codec::CodecId::kInt8PerNeuron;
  opts.error_feedback = true;
  return opts;
}

// The synchronous rounds train on the pool, then encode and decode every
// update there. Training, codec and transfer telemetry must still come out
// in roster order, so the journal matches the 1-thread journal line for
// line.
TEST(DeterminismTest, SyncJournalIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const net::NetworkOptions network = lossy_int8_network();
  auto check = [&](auto make, const std::string& name) {
    expect_same_journal(journal_with_threads(1, make, network),
                        journal_with_threads(4, make, network), name);
  };
  check([] { return fl::SyncFL(); }, "sync");
  check([] { return core::HeliosStrategy(core::HeliosConfig{}); }, "helios");
  check([] { return fl::CompressedSyncFL(0.25); }, "topk25");
  check([] { return fl::AsyncFL(2); }, "async_p2");
}

// The event engine encodes and decodes each completion inside its wave, on
// the pool, ahead of its pop; codec and transfer telemetry must still come
// out at the pop, in event order, and each residual must advance once per
// completion.
TEST(DeterminismTest, AsyncCodecJournalIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const net::NetworkOptions network = lossy_int8_network();
  auto check = [&](auto make, const std::string& name) {
    expect_same_journal(journal_with_threads(1, make, network),
                        journal_with_threads(4, make, network), name);
  };
  check([] { return fl::Afo(); }, "afo");
  check([] { return fl::AsyncFL(); }, "async");
}

// ---- Sliced evaluation ------------------------------------------------------
// Fleet::evaluate cuts the test set into one slice per pool thread and
// evaluates the slices on per-thread replicas. That is exact only because
// inference logits do not depend on the batch they are computed in.

/// Samples [start, start + take) of `test` as one batch.
tensor::Tensor batch_of(const data::Dataset& test, int start, int take) {
  tensor::Tensor x({take, test.channels(), test.height(), test.width()});
  const std::size_t sample = x.numel() / static_cast<std::size_t>(take);
  std::copy_n(test.images.data() + static_cast<std::size_t>(start) * sample,
              x.numel(), x.data());
  return x;
}

std::vector<float> logits_of(nn::Model& model, const data::Dataset& test,
                             int start, int take) {
  const tensor::Tensor logits =
      model.forward(batch_of(test, start, take), /*training=*/false);
  return {logits.data(), logits.data() + logits.numel()};
}

TEST(DeterminismTest, EvaluationSlicesMatchOneBatchForEveryZooModel) {
  ThreadGuard guard;
  const models::ModelSpec zoo[] = {
      models::lenet_spec(), models::alexnet_lite_spec(),
      models::resnet18_lite_spec(), models::mlp_spec({1, 8, 8, 4}),
      models::mobilenet_lite_spec()};
  for (const models::ModelSpec& spec : zoo) {
    data::SyntheticSpec ds;
    ds.samples = 203;  // not a multiple of any slice
    ds.channels = spec.input.channels;
    ds.height = spec.input.height;
    ds.width = spec.input.width;
    ds.classes = spec.input.classes;
    util::Rng rng(29);
    const data::Dataset test = data::make_synthetic(ds, rng);

    util::set_global_threads(1);
    nn::Model model = spec.build(3);
    // Move BatchNorm's running statistics off their initial values.
    model.forward(batch_of(test, 0, 16), /*training=*/true);

    const std::vector<float> batch128 = logits_of(model, test, 0, 128);
    for (int batch : {1, 32}) {
      std::vector<float> sliced;
      for (int start = 0; start < 128; start += batch) {
        const std::vector<float> part = logits_of(model, test, start, batch);
        sliced.insert(sliced.end(), part.begin(), part.end());
      }
      EXPECT_TRUE(testing::bitwise_equal(sliced, batch128))
          << spec.name << ": logits at batch " << batch << " differ";
    }

    int correct = 0;
    for (int start = 0; start < test.size(); start += 128) {
      const int take = std::min(128, test.size() - start);
      correct += nn::evaluate_batch(
          model, batch_of(test, start, take),
          std::span<const int>(test.labels.data() + start,
                               static_cast<std::size_t>(take)));
    }
    const double expected = static_cast<double>(correct) / test.size();

    fl::Fleet fleet(spec, test);
    fleet.server().set_global(model.params_flat());
    fleet.server().set_global_buffers(model.buffers_flat());
    for (int threads : {1, 4}) {
      util::set_global_threads(threads);
      EXPECT_EQ(fleet.evaluate(), expected)
          << spec.name << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace helios
