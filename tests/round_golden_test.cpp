// Cross-commit golden pin for the synchronous and asynchronous strategies.
//
// Every other identity oracle compares two runs of the same build (1 vs 4
// threads, flat vs tree, killed-and-resumed vs uninterrupted), so a change
// that shifts the bits the same way in both runs passes all of them. This
// suite instead pins each strategy's RunResult and final model to constants:
// an FNV-1a digest over every RoundRecord's bit patterns plus the final
// global parameters and buffers. Each constant was recorded once and must
// never be re-recorded to make a refactor pass — a mismatch means the
// strategy's arithmetic changed:
//
//   * the 29 synchronous cases at commit 7f087db, before the five
//     synchronous loops were folded into one round driver;
//   * the 12 asynchronous cases (Asyn. FL, Asyn. FL period 2, AFO) at
//     commit ca40dcf, before the two event loops were folded into one
//     asynchronous event engine.
//
// Settings: 4 cycles, the scalar kernel backend forced through the
// override API, 1 thread; every case runs again at 4 threads against the
// same constants. Environments: the 4-device test fleet with no
// session, with a simulated 5%-loss int8-per-neuron + error-feedback
// session, and with a depth-2 (2-edge) aggregator tree; plus lazy
// mobile_longtail(64) with a CohortSampler. CompressedSyncFL is left out of
// the sampled case on purpose: it ignored the sampler before the round
// driver, so its sampled trajectory changed by design.
//
// The scalar table hides the AVX2 kernels, so RoundGoldenAvx2Test pins the
// sampled long tail (LeNet on 1x16x16, the benchmark's LeNet workloads'
// model) on the AVX2 table under Helios, Syn. FL and AFO, at 1 and 4
// threads. Those 3 digests were recorded at commit ed23d9d, before the NT
// kernels were register-tiled; they skip where AVX2 is absent.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <ostream>
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
#include "fl/hierarchy.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "tensor/backend/dispatch.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

constexpr int kCycles = 4;

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof v);
  }
};

std::uint64_t digest(const fl::RunResult& result, fl::Fleet& fleet) {
  Fnv1a f;
  f.value(static_cast<std::uint64_t>(result.rounds.size()));
  for (const fl::RoundRecord& r : result.rounds) {
    f.value(static_cast<std::int32_t>(r.cycle));
    f.value(r.virtual_time);
    f.value(r.test_accuracy);
    f.value(r.mean_train_loss);
    f.value(r.upload_mb);
  }
  const auto global = fleet.server().global();
  const auto buffers = fleet.server().global_buffers();
  f.bytes(global.data(), global.size() * sizeof(float));
  f.bytes(buffers.data(), buffers.size() * sizeof(float));
  return f.h;
}

std::unique_ptr<fl::Strategy> make_strategy(const std::string& kind) {
  if (kind == "helios") {
    return std::make_unique<core::HeliosStrategy>(core::HeliosConfig{});
  }
  if (kind == "st_only") {
    core::HeliosConfig cfg;
    cfg.hetero_aggregation = false;
    return std::make_unique<core::HeliosStrategy>(cfg);
  }
  if (kind == "sync") return std::make_unique<fl::SyncFL>();
  if (kind == "sync_c05") return std::make_unique<fl::SyncFL>(0.5);
  if (kind == "fedprox") return std::make_unique<fl::FedProx>();
  if (kind == "random") return std::make_unique<fl::RandomSubmodel>();
  if (kind == "static") return std::make_unique<fl::StaticPrune>();
  if (kind == "topk25") return std::make_unique<fl::CompressedSyncFL>(0.25);
  if (kind == "async") return std::make_unique<fl::AsyncFL>();
  if (kind == "async_p2") return std::make_unique<fl::AsyncFL>(2);
  if (kind == "afo") return std::make_unique<fl::Afo>();
  throw std::invalid_argument("unknown strategy kind " + kind);
}

enum class Env { kPlain, kLossyInt8, kTree, kSampledLongtail };

struct GoldenCase {
  const char* kind;
  Env env;
  std::uint64_t digest;
};

std::string env_name(Env env) {
  switch (env) {
    case Env::kPlain: return "plain";
    case Env::kLossyInt8: return "lossy_int8pn";
    case Env::kTree: return "tree2";
    case Env::kSampledLongtail: return "sampled_longtail";
  }
  return "?";
}

std::string case_name(const GoldenCase& c) {
  return std::string(c.kind) + "_" + env_name(c.env);
}

// Stable test names: gtest would otherwise print the raw bytes (a pointer).
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << case_name(c); }

/// Lazy mobile_longtail(64) with the benchmark's set-up recipe: time-based
/// identification of the slowest quarter, profiled targets, cohort ~1/8.
fl::Fleet make_sampled_longtail(sim::CohortSampler& sampler) {
  sim::PopulationConfig cfg = sim::mobile_longtail(64);
  cfg.lazy_data = true;
  fl::Fleet fleet = sim::build_fleet(sim::PopulationGenerator(cfg));
  const core::StragglerReport report =
      core::StragglerIdentifier::time_based(fleet, 16);
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);
  fleet.set_sampler(&sampler);
  return fleet;
}

std::uint64_t run_case(const GoldenCase& c) {
  sim::CohortSampler::Options sopts;
  sopts.fraction = 0.125;
  sopts.seed = 17;
  sim::CohortSampler sampler(sopts);
  fl::Fleet fleet = c.env == Env::kSampledLongtail
                        ? make_sampled_longtail(sampler)
                        : testing::make_fleet();
  std::optional<fl::NetworkSession> session;
  if (c.env == Env::kLossyInt8) {
    net::NetworkOptions opts;
    opts.mode = net::NetMode::kSimulated;
    opts.channel.loss_prob = 0.05;
    opts.payload_codec = codec::CodecId::kInt8PerNeuron;
    opts.error_feedback = true;
    session.emplace(fleet, opts);
  }
  std::optional<fl::HierarchySession> hier;
  if (c.env == Env::kTree) {
    agg::TreeTopology topo;
    topo.edge_nodes = 2;  // depth 2: edges fold straight into the root
    hier.emplace(fleet, topo);
  }
  auto strategy = make_strategy(c.kind);
  const fl::RunResult result = strategy->run(fleet, kCycles);
  const std::uint64_t d = digest(result, fleet);
  fleet.set_sampler(nullptr);
  return d;
}

class RoundGoldenTest : public ::testing::TestWithParam<GoldenCase> {
 protected:
  void SetUp() override {
    util::set_global_threads(1);
    tensor::backend::set_kernel_backend(tensor::backend::Backend::kScalar);
  }
  void TearDown() override {
    tensor::backend::clear_kernel_backend_override();
    util::set_global_threads(0);
  }
};

TEST_P(RoundGoldenTest, MatchesRecordedDigest) {
  const GoldenCase& c = GetParam();
  const std::uint64_t got = run_case(c);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxULL",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, c.digest) << case_name(c) << ": digest is now " << hex;
}

// Synchronous cases recorded at 7f087db, asynchronous ones at ca40dcf.
// Never re-record.
const GoldenCase kCases[] = {
    {"helios", Env::kPlain, 0xaef3b975bb486242ULL},
    {"st_only", Env::kPlain, 0x3927ce0e03ba8c9eULL},
    {"sync", Env::kPlain, 0xdacdde21b810e40fULL},
    {"sync_c05", Env::kPlain, 0x73f3fa431c37a28aULL},
    {"fedprox", Env::kPlain, 0x52ddfeef78ba10f8ULL},
    {"random", Env::kPlain, 0xa6b532df2a78994fULL},
    {"static", Env::kPlain, 0xb9032b69fe0d2763ULL},
    {"topk25", Env::kPlain, 0x9ba06fb2abb3e462ULL},
    {"helios", Env::kLossyInt8, 0xdeb1ee963bfd1df2ULL},
    {"st_only", Env::kLossyInt8, 0x2643183a665b6e2fULL},
    {"sync", Env::kLossyInt8, 0x6f04f9e94e361342ULL},
    {"sync_c05", Env::kLossyInt8, 0xba760287e3bb37d5ULL},
    {"fedprox", Env::kLossyInt8, 0x25b7811192998de0ULL},
    {"random", Env::kLossyInt8, 0xdad55adcde6c38e0ULL},
    {"static", Env::kLossyInt8, 0x2bd71c566cf9f46fULL},
    {"topk25", Env::kLossyInt8, 0x53f146b3fa615dc1ULL},
    {"helios", Env::kTree, 0xaef3b975bb486242ULL},
    {"st_only", Env::kTree, 0x3927ce0e03ba8c9eULL},
    {"sync", Env::kTree, 0xdacdde21b810e40fULL},
    {"sync_c05", Env::kTree, 0x73f3fa431c37a28aULL},
    {"fedprox", Env::kTree, 0x52ddfeef78ba10f8ULL},
    {"random", Env::kTree, 0xa6b532df2a78994fULL},
    {"static", Env::kTree, 0xb9032b69fe0d2763ULL},
    {"topk25", Env::kTree, 0x9ba06fb2abb3e462ULL},
    {"helios", Env::kSampledLongtail, 0x7f1685554c594b16ULL},
    {"sync", Env::kSampledLongtail, 0xef1f3ae81065a56dULL},
    {"fedprox", Env::kSampledLongtail, 0xb9e35ec5722e6fb3ULL},
    {"random", Env::kSampledLongtail, 0xa7b406df717d32dbULL},
    {"static", Env::kSampledLongtail, 0x48ded9b8a020dea3ULL},
    {"async", Env::kPlain, 0x6d022991f9a05a1fULL},
    {"async_p2", Env::kPlain, 0x06330171f74e27a9ULL},
    {"afo", Env::kPlain, 0xe6e061a68e9911c2ULL},
    {"async", Env::kLossyInt8, 0xd735b3a5ee0c7401ULL},
    {"async_p2", Env::kLossyInt8, 0xdc8f65018275a6b5ULL},
    {"afo", Env::kLossyInt8, 0x8ef25d884e1378d0ULL},
    {"async", Env::kTree, 0x6d022991f9a05a1fULL},
    {"async_p2", Env::kTree, 0x06330171f74e27a9ULL},
    {"afo", Env::kTree, 0xe6e061a68e9911c2ULL},
    {"async", Env::kSampledLongtail, 0xe2b04462bd60a0c5ULL},
    {"async_p2", Env::kSampledLongtail, 0xd9508d8e24ad25e0ULL},
    {"afo", Env::kSampledLongtail, 0x68d29f185d198cd6ULL},
};

INSTANTIATE_TEST_SUITE_P(
    Parent, RoundGoldenTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return case_name(info.param);
    });

// Every case again at 4 threads, against the same constants. The event
// engine trains each wave of in-flight devices concurrently; the
// synchronous rounds train, encode, decode and evaluate on the pool. The
// 12 asynchronous cases were added first, the 29 synchronous ones when the
// wire path, the tier collapse and evaluation moved onto the pool.
class RoundGoldenFourThreadTest : public RoundGoldenTest {
 protected:
  void SetUp() override {
    RoundGoldenTest::SetUp();
    util::set_global_threads(4);
  }
};

TEST_P(RoundGoldenFourThreadTest, MatchesRecordedDigest) {
  const GoldenCase& c = GetParam();
  EXPECT_EQ(run_case(c), c.digest) << case_name(c) << " at 4 threads";
}

INSTANTIATE_TEST_SUITE_P(
    Parent, RoundGoldenFourThreadTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return case_name(info.param);
    });

// The sampled long tail on the AVX2 table, recorded at ed23d9d. Never
// re-record.
const GoldenCase kAvx2Cases[] = {
    {"helios", Env::kSampledLongtail, 0xc699ae7db01cab5dULL},
    {"sync", Env::kSampledLongtail, 0x628ed4e79d2dc493ULL},
    {"afo", Env::kSampledLongtail, 0xae8479eda0fcc90eULL},
};

struct Avx2Case {
  GoldenCase golden;
  int threads;
};

void PrintTo(const Avx2Case& c, std::ostream* os) {
  *os << case_name(c.golden) << "_t" << c.threads;
}

std::vector<Avx2Case> avx2_cases() {
  std::vector<Avx2Case> out;
  for (int threads : {1, 4}) {
    for (const GoldenCase& c : kAvx2Cases) out.push_back({c, threads});
  }
  return out;
}

class RoundGoldenAvx2Test : public ::testing::TestWithParam<Avx2Case> {
 protected:
  void SetUp() override {
    if (!tensor::backend::avx2_available()) {
      GTEST_SKIP() << "AVX2+FMA not available on this CPU or build";
    }
    util::set_global_threads(GetParam().threads);
    tensor::backend::set_kernel_backend(tensor::backend::Backend::kAvx2);
  }
  void TearDown() override {
    tensor::backend::clear_kernel_backend_override();
    util::set_global_threads(0);
  }
};

TEST_P(RoundGoldenAvx2Test, MatchesRecordedDigest) {
  const Avx2Case& c = GetParam();
  const std::uint64_t got = run_case(c.golden);
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%016llxULL",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, c.golden.digest)
      << case_name(c.golden) << " at " << c.threads
      << " threads: digest is now " << hex;
}

INSTANTIATE_TEST_SUITE_P(
    Parent, RoundGoldenAvx2Test, ::testing::ValuesIn(avx2_cases()),
    [](const ::testing::TestParamInfo<Avx2Case>& info) {
      return case_name(info.param.golden) + "_t" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace helios
