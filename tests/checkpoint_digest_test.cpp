// Cross-commit pins of the checkpoint payload bytes.
//
// The crash/resume oracles compare a killed-and-resumed run with an
// uninterrupted one, so a change that writes and reads a field differently
// but consistently passes them while changing the file format. This suite
// pins the payload itself: the FNV-1a digest of make_checkpoint_payload for
// one configuration per section layout, recorded once at commit 78c6e40 and
// never re-recorded. A mismatch means the checkpoint format changed.
//
// Settings: the scalar kernel backend forced through the override API, no
// telemetry sink (the meta section's journal offset would depend on the
// wall-clock digits the journal prints), 1 thread; every case runs again at
// 4 threads against the same constants. Each case also checks that its run
// reached the state it is meant to cover, so a digest cannot stay green by
// pinning an emptier payload than intended.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "checkpoint_rigs.h"
#include "tensor/backend/dispatch.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

struct Guards {
  Guards() {
    tensor::backend::set_kernel_backend(tensor::backend::Backend::kScalar);
  }
  ~Guards() {
    util::set_global_threads(0);
    tensor::backend::clear_kernel_backend_override();
  }
};

std::uint64_t digest(const std::string& payload) {
  return testing::fnv1a(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()));
}

using testing::RigKind;

std::string helios_tree_payload() {
  testing::CheckpointRig rig = testing::make_rig(RigKind::kHeliosTree);
  const std::string payload = rig.pinned_payload();
  EXPECT_GT(rig.fleet->size(), 6U) << "no churn joiner arrived";
  EXPECT_FALSE(rig.fleet->client(3).active())
      << "the scripted death never hit";
  EXPECT_GT(rig.session->feedback().clients(), 0U)
      << "no residual was banked";
  EXPECT_FALSE(rig.fleet->stragglers().empty());
  return payload;
}

std::string afo_sampled_payload() {
  testing::CheckpointRig rig = testing::make_rig(RigKind::kAfoSampled);
  const std::string payload = rig.pinned_payload();
  std::size_t live = 0;
  for (auto& c : rig.fleet->clients()) live += c->materialized() ? 1 : 0;
  EXPECT_LT(live, rig.fleet->size() / 2)
      << "the sampler parked too few devices";
  return payload;
}

template <RigKind kKind>
std::string payload_of() {
  return testing::make_rig(kKind).pinned_payload();
}

struct Case {
  const char* name;
  std::string (*payload)();
  std::uint64_t digest;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// Recorded at 78c6e40 (scalar backend, 1 thread, no sink).
const Case kCases[] = {
    {"helios_tree_int8_churn", helios_tree_payload, 0xa661fe00c2ba6060ULL},
    {"afo_sampled_lazy", afo_sampled_payload, 0xd29f1a7575f5ad50ULL},
    {"async_full", payload_of<RigKind::kAsync>, 0x304f024a7a1d77a0ULL},
    {"async_period2", payload_of<RigKind::kAsyncPeriod>,
     0x036de5b1d54f70f3ULL},
    {"random_submodel", payload_of<RigKind::kRandom>, 0x19d084a514c529feULL},
    {"static_prune", payload_of<RigKind::kStatic>, 0xac764c33fb28b59fULL},
    {"sync_momentum", payload_of<RigKind::kSyncMomentum>,
     0xd92390e75c3ba0e8ULL},
};

class CheckpointDigestTest : public ::testing::TestWithParam<Case> {};

TEST_P(CheckpointDigestTest, PayloadBytesArePinned) {
  const Case& c = GetParam();
  Guards guards;
  for (int threads : {1, 4}) {
    util::set_global_threads(threads);
    const std::uint64_t got = digest(c.payload());
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL",
                  static_cast<unsigned long long>(got));
    EXPECT_EQ(got, c.digest) << c.name << " threads=" << threads
                             << ": payload digest " << hex;
  }
}

INSTANTIATE_TEST_SUITE_P(Sections, CheckpointDigestTest,
                         ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace helios
