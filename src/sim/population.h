// Population-scale device generation: sample arbitrary-size fleets of
// heterogeneous devices from seeded parametric distributions.
//
// The paper evaluates Helios on hand-enumerated 4–6 device testbeds; a
// production federation has thousands of devices whose compute, bandwidth
// and data volumes follow long-tailed distributions. A PopulationGenerator
// turns a PopulationConfig (distribution parameters or a fixed roster) into
// per-device specs — device::ResourceProfile + net::ChannelConfig + shard
// size + seeds — so profiling, straggler classification, the analytic cost
// model and the network simulation all work unchanged on generated fleets.
//
// RNG-forking contract: every draw for device i comes from
// Rng(seed).fork(field).fork(i) — a pure function of (seed, field, i).
// Devices can therefore be generated lazily, out of order, or appended to
// an existing population without perturbing any other device's profile,
// data, or schedule. The same convention governs cohort sampling
// (sampler.h) and churn (churn.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "device/resource.h"
#include "fl/fleet.h"
#include "models/zoo.h"
#include "net/channel.h"

namespace helios::fl {
class NetworkSession;
}

namespace helios::sim {

/// One entry of a fixed (hand-enumerated) roster; device i uses entry
/// i % roster.size().
struct FixedDevice {
  device::ResourceProfile profile;
  bool straggler = false;
  double volume = 1.0;
};

struct PopulationConfig {
  std::string name = "custom";
  int devices = 4;
  std::uint64_t seed = 11;

  /// Global model every client replicates (the federation's architecture).
  models::ModelSpec model;

  // -- Task / data ----------------------------------------------------------
  /// Mean local dataset size (exact per client in pooled mode; the Pareto
  /// location parameter in per-device mode).
  int samples_per_client = 48;
  int test_samples = 160;
  int classes = 4;
  int channels = 1;
  int hw = 8;  ///< image side
  float noise = 0.6F;
  float lr = 0.08F;
  int batch = 8;

  /// Pooled mode (paper testbeds): synthesize one training pool and
  /// partition it across clients — byte-compatible with the hand-built
  /// fleets. Per-device mode (population scale): each device synthesizes
  /// its own shard independently (same class prototypes via
  /// prototype_seed), so building a 1024-device fleet never allocates a
  /// monolithic pool and devices keep their data under churn/extension.
  bool pooled_data = true;
  /// Pooled mode only: shard-based Non-IID split (2 shards/client).
  bool non_iid = false;
  /// Per-device mode only: label classes each device observes
  /// (0 = all classes). The skew knob for non-IID populations.
  int classes_per_device = 0;
  /// Per-device mode only: build clients with a lazy data factory instead of
  /// eagerly synthesized shards. Sampled devices materialize their shard on
  /// first training use and release it when hibernated, so an O(100k)-device
  /// fleet at C ~ 0.01 holds sample memory only for the active cohort.
  /// Training is bit-identical either way (the shard and the loader's
  /// shuffle stream are pure functions of the seed).
  bool lazy_data = false;

  // -- Device roster --------------------------------------------------------
  /// Non-empty = fixed-roster mode: profiles/flags cycle through this list
  /// and no parametric draws happen.
  std::vector<FixedDevice> fixed;

  // -- Parametric distributions (fixed.empty() only) ------------------------
  /// Compute C_cpu ~ LogNormal(median, sigma) — the long-tail heterogeneity
  /// knob. sigma ≈ 0.8 gives a p99/p50 ratio of ~6x.
  double median_gflops = 8.0;
  double compute_log_sigma = 0.8;
  /// Memory bandwidth V_mc scales with compute (mem_per_gflop MB/s per
  /// GFLOP/s), mirroring how real device tiers co-scale.
  double mem_per_gflop = 1600.0;
  /// Network bandwidth B_n ~ LogNormal(median, sigma), independent of
  /// compute (a fast phone on a slow uplink is common).
  double median_net_mbps = 60.0;
  double net_log_sigma = 0.7;
  double memory_mb = 2048.0;
  /// Shard sizes ~ samples_per_client * Pareto(alpha), capped.
  double shard_pareto_alpha = 1.8;
  int max_shard_samples = 512;

  // -- Channel distributions ------------------------------------------------
  /// Median last-mile latency; per-device ~ LogNormal(median, 0.5).
  double median_latency_s = 0.01;
  double jitter_s = 0.002;
  double loss_prob = 0.0;
};

/// Everything needed to instantiate device i in a fleet.
struct DeviceSpec {
  int index = 0;
  device::ResourceProfile profile;
  net::ChannelConfig channel;
  int shard_samples = 0;
  /// Label classes this device observes (empty = all).
  std::vector<int> label_classes;
  bool straggler = false;  ///< fixed-roster flag (parametric: identified later)
  double volume = 1.0;
};

class PopulationGenerator {
 public:
  explicit PopulationGenerator(PopulationConfig config);

  const PopulationConfig& config() const { return config_; }
  int size() const { return config_.devices; }

  /// Device i's spec — a pure function of (config.seed, i); i may exceed
  /// config.devices (joiners drawn from the same population).
  DeviceSpec device(int i) const;

 private:
  PopulationConfig config_;
};

// -- Presets ----------------------------------------------------------------

/// The repo's hand-built 4-device strategy-test fleet (2 capable edge
/// servers + 2 DeepLens-CPU stragglers at volume 0.35, pooled IID MLP
/// task, seed 11) expressed as a population: build_fleet() of this preset
/// is bit-identical to the hand-enumerated fleet.
PopulationConfig paper_4dev();

/// A long-tailed mobile population: LeNet task, per-device shards with
/// 2-class label skew, log-normal compute/bandwidth with a heavy weak
/// tail — the regime where sampling and churn matter.
PopulationConfig mobile_longtail(int devices, std::uint64_t seed = 2026);

// -- Fleet assembly ---------------------------------------------------------

/// Builds a fleet from the population: synthesizes the task data (pooled or
/// per-device), adds every device as a client (cfg.seed = seed + i), and
/// applies fixed-roster straggler flags/volumes.
fl::Fleet build_fleet(const PopulationGenerator& pop);

/// Adds device `index` of the population to an existing fleet (the churn /
/// joiner path). Returns the new client.
fl::Client& add_device(fl::Fleet& fleet, const PopulationGenerator& pop,
                       int index);

/// Applies each device's generated ChannelConfig to the session's protocol
/// (latency / jitter / loss heterogeneity; bandwidth stays the profile's
/// B_n unless the config overrides it).
void apply_channels(fl::NetworkSession& session,
                    const PopulationGenerator& pop);

}  // namespace helios::sim
