// The benchmark's four workloads and the federation ("rig") each one runs.
//
// A workload fixes a population (or the testbed's data), its cohort schedule,
// a strategy, and the transport/aggregation path; the seed picks the run's
// draws (the testbed's model init and batch order, channel RNG, Helios mask
// RNG). build_rig() performs the four set-up steps
// the traced run reports separately: fleet build, straggler identification,
// target assignment, and session attachment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "fl/fleet.h"
#include "fl/hierarchy.h"
#include "fl/metrics.h"
#include "fl/strategy.h"
#include "fl/transport.h"
#include "obs/trace.h"
#include "sim/population.h"
#include "sim/sampler.h"

namespace helios::benchmark {

enum class Kind { kTestbed, kLongtail, kHier, kAsync };

struct Workload {
  const char* name;
  Kind kind;
  /// Population size (the testbed is a fixed six-device roster).
  int devices;
  /// Expected cohort size per round (0 = every device, no sampler).
  int cohort;
  /// Rounds whose RoundRecords define the seed-deterministic metrics
  /// (vtime_to_target_s, final_accuracy, upload_mb_per_round). Every run
  /// completes at least this many rounds, so those metrics never depend on
  /// how fast the machine is.
  int quality_rounds;
  /// Save a checkpoint after every Nth round (0 = never).
  int checkpoint_every;
};

/// Warm-up rounds excluded from every wall statistic.
inline constexpr int kWarmupRounds = 5;
/// Rounds measured after warm-up in the traced run (and its untraced twin).
inline constexpr int kTracedRounds = 20;
/// Accuracy target behind vtime_to_target_s and the reach-target check.
inline constexpr double kTargetAccuracy = 0.85;

const std::vector<Workload>& workloads();
/// nullptr when `name` is not a workload.
const Workload* find_workload(const std::string& name);

/// One configured federation, ready for Strategy::run_range. Members are
/// declared so that the sessions and sampler, which point at the fleet, are
/// destroyed before it.
struct Rig {
  const Workload* workload = nullptr;
  std::unique_ptr<sim::PopulationGenerator> population;
  std::unique_ptr<fl::Fleet> fleet;
  std::unique_ptr<sim::CohortSampler> sampler;
  std::unique_ptr<fl::NetworkSession> network;
  std::unique_ptr<fl::HierarchySession> hierarchy;
  std::unique_ptr<fl::Strategy> strategy;
  fl::RunResult result;
  /// Payload codec of the workload's uploads (kFp32 without a network).
  codec::CodecId codec = codec::CodecId::kFp32;

  /// Runs round `result.rounds.size()` (one run_range call).
  void run_round();
};

struct RigOptions {
  std::uint64_t seed = 1;
  /// Smoke scale: populations divided by 16.
  bool smoke = false;
  /// When set, each set-up step is emitted as a bench.setup.* span.
  obs::TraceWriter* tracer = nullptr;
  /// When set, attached to the fleet right after it is built (traced run).
  obs::TelemetrySink* telemetry = nullptr;
};

std::unique_ptr<Rig> build_rig(const Workload& w, const RigOptions& opts);

}  // namespace helios::benchmark
