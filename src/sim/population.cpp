#include "sim/population.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "data/partition.h"
#include "fl/transport.h"

namespace helios::sim {
namespace {

// Field streams of the population's RNG-forking contract: every per-device
// draw is Rng(seed).fork(stream).fork(i) — independent across fields and
// devices, and insensitive to how many devices exist.
constexpr std::uint64_t kProfileStream = 0x0F11E;
constexpr std::uint64_t kChannelStream = 0xC4A2;
constexpr std::uint64_t kSizeStream = 0x512E;
constexpr std::uint64_t kClassStream = 0xC1A55;
constexpr std::uint64_t kShardStream = 0xDA7A;
constexpr std::uint64_t kTestStream = 0x7E57;

data::SyntheticSpec task_spec(const PopulationConfig& c) {
  data::SyntheticSpec s;
  s.channels = c.channels;
  s.height = c.hw;
  s.width = c.hw;
  s.classes = c.classes;
  s.noise = c.noise;
  // prototype_seed stays at its default: one task identity shared by the
  // pooled split, every per-device shard, and the test set.
  return s;
}

/// Everything a device shard's synthesis depends on, by value — small
/// enough that a lazy client can carry one in its data factory without
/// holding the whole PopulationConfig (or the generator) alive.
struct ShardRecipe {
  data::SyntheticSpec spec;  // task identity; samples filled per call
  std::uint64_t seed = 0;
  int index = 0;
  int shard_samples = 0;
  std::vector<int> label_classes;
};

ShardRecipe shard_recipe(const PopulationConfig& c, const DeviceSpec& d) {
  return ShardRecipe{task_spec(c), c.seed, d.index, d.shard_samples,
                     d.label_classes};
}

/// Per-device shard: independently synthesized from the device's own
/// stream (same class prototypes as everyone else), optionally restricted
/// to the device's label classes: the first shard_samples matches of a
/// candidate pool, drawn label first so only kept candidates are
/// synthesized (data::make_synthetic_filtered). Pure function of the
/// recipe, so eager and lazy materialization are bit-identical.
data::Dataset make_shard(const ShardRecipe& r) {
  data::SyntheticSpec s = r.spec;
  util::Rng rng = util::Rng(r.seed).fork(kShardStream).fork(
      static_cast<std::uint64_t>(r.index));
  if (r.label_classes.empty()) {
    s.samples = r.shard_samples;
    return data::make_synthetic(s, rng);
  }
  const int k = static_cast<int>(r.label_classes.size());
  // Labels are drawn uniformly, so a pool of classes/k times the shard
  // (plus slack) holds ~shard_samples matches.
  s.samples = r.shard_samples * s.classes / k + 2 * s.classes;
  return data::make_synthetic_filtered(s, rng, r.label_classes,
                                       r.shard_samples);
}

data::Dataset device_shard(const PopulationConfig& c, const DeviceSpec& d) {
  return make_shard(shard_recipe(c, d));
}

fl::ClientConfig client_config(const PopulationConfig& c, int index) {
  fl::ClientConfig cfg;
  cfg.seed = c.seed + static_cast<std::uint64_t>(index);
  cfg.lr = c.lr;
  cfg.batch_size = c.batch;
  return cfg;
}

}  // namespace

PopulationGenerator::PopulationGenerator(PopulationConfig config)
    : config_(std::move(config)) {
  if (config_.devices <= 0) {
    throw std::invalid_argument("PopulationGenerator: devices <= 0");
  }
  if (!config_.model.build) {
    throw std::invalid_argument("PopulationGenerator: config has no model");
  }
  if (config_.samples_per_client <= 0 || config_.classes <= 0 ||
      config_.hw <= 0) {
    throw std::invalid_argument("PopulationGenerator: bad task geometry");
  }
}

DeviceSpec PopulationGenerator::device(int i) const {
  if (i < 0) throw std::invalid_argument("PopulationGenerator: index < 0");
  const auto idx = static_cast<std::uint64_t>(i);
  DeviceSpec d;
  d.index = i;
  d.shard_samples = config_.samples_per_client;

  if (!config_.fixed.empty()) {
    const FixedDevice& f =
        config_.fixed[static_cast<std::size_t>(i) % config_.fixed.size()];
    d.profile = f.profile;
    d.straggler = f.straggler;
    d.volume = f.volume;
    d.channel.latency_s = config_.median_latency_s;
    d.channel.jitter_s = config_.jitter_s;
    d.channel.loss_prob = config_.loss_prob;
    return d;
  }

  util::Rng pr = util::Rng(config_.seed).fork(kProfileStream).fork(idx);
  const double compute = config_.median_gflops *
                         std::exp(config_.compute_log_sigma * pr.normal());
  const double net =
      config_.median_net_mbps * std::exp(config_.net_log_sigma * pr.normal());
  d.profile.name = "sim-" + std::to_string(i);
  d.profile.compute_gflops = compute;
  d.profile.mem_bandwidth_mbps = compute * config_.mem_per_gflop;
  d.profile.net_bandwidth_mbps = net;
  d.profile.memory_mb = config_.memory_mb;

  util::Rng cr = util::Rng(config_.seed).fork(kChannelStream).fork(idx);
  d.channel.latency_s = config_.median_latency_s * std::exp(0.5 * cr.normal());
  d.channel.jitter_s = config_.jitter_s;
  d.channel.loss_prob = config_.loss_prob;

  util::Rng sr = util::Rng(config_.seed).fork(kSizeStream).fork(idx);
  const double u = std::max(1e-12, sr.uniform());
  const double pareto = std::pow(u, -1.0 / config_.shard_pareto_alpha);
  d.shard_samples = std::min(
      config_.max_shard_samples,
      static_cast<int>(static_cast<double>(config_.samples_per_client) *
                       pareto));

  if (config_.classes_per_device > 0 &&
      config_.classes_per_device < config_.classes) {
    util::Rng lr = util::Rng(config_.seed).fork(kClassStream).fork(idx);
    for (std::size_t cls : lr.sample_without_replacement(
             static_cast<std::size_t>(config_.classes),
             static_cast<std::size_t>(config_.classes_per_device))) {
      d.label_classes.push_back(static_cast<int>(cls));
    }
    std::sort(d.label_classes.begin(), d.label_classes.end());
  }
  return d;
}

PopulationConfig paper_4dev() {
  PopulationConfig c;
  c.name = "paper-4dev";
  c.devices = 4;
  c.seed = 11;
  c.model = models::mlp_spec({1, 8, 8, 4}, 24);
  c.samples_per_client = 48;
  c.test_samples = 160;
  c.classes = 4;
  c.hw = 8;
  c.noise = 0.6F;
  c.lr = 0.08F;
  c.batch = 8;
  c.pooled_data = true;
  // Two capable edge servers, then two DeepLens-CPU stragglers at volume
  // 0.35 — the strategy-test roster order (stragglers last).
  c.fixed = {
      {device::sim_scaled(device::edge_server()), false, 1.0},
      {device::sim_scaled(device::edge_server()), false, 1.0},
      {device::sim_scaled(device::deeplens_cpu()), true, 0.35},
      {device::sim_scaled(device::deeplens_cpu()), true, 0.35},
  };
  return c;
}

PopulationConfig mobile_longtail(int devices, std::uint64_t seed) {
  PopulationConfig c;
  c.name = "mobile-longtail";
  c.devices = devices;
  c.seed = seed;
  c.model = models::lenet_spec({1, 16, 16, 10});
  c.samples_per_client = 32;
  c.test_samples = 256;
  c.classes = 10;
  c.hw = 16;
  c.noise = 0.5F;
  c.lr = 0.06F;
  c.batch = 8;
  c.pooled_data = false;
  c.classes_per_device = 2;  // strong label skew, as in the paper's Non-IID
  c.median_gflops = 6.0;
  c.compute_log_sigma = 0.9;  // heavy weak tail: p99/p50 ~ 8x
  c.mem_per_gflop = 1600.0;
  c.median_net_mbps = 40.0;
  c.net_log_sigma = 0.8;
  c.memory_mb = 1024.0;
  c.shard_pareto_alpha = 1.8;
  c.max_shard_samples = 160;
  c.median_latency_s = 0.012;
  c.jitter_s = 0.004;
  c.loss_prob = 0.0;
  return c;
}

fl::Fleet build_fleet(const PopulationGenerator& pop) {
  const PopulationConfig& c = pop.config();
  data::SyntheticSpec spec = task_spec(c);

  if (c.pooled_data) {
    // The hand-built testbed recipe, verbatim (one pool, one RNG stream
    // consumed train -> test -> partition), so a fixed-roster pooled
    // population is bit-identical to the corresponding hand-built fleet.
    spec.samples = c.samples_per_client * c.devices;
    util::Rng rng(c.seed);
    data::Dataset train = data::make_synthetic(spec, rng);
    spec.samples = c.test_samples;
    data::Dataset test = data::make_synthetic(spec, rng);
    fl::Fleet fleet(c.model, std::move(test), c.seed);
    const data::Partition parts =
        c.non_iid
            ? data::partition_shards(train.labels,
                                     static_cast<std::size_t>(c.devices), 2,
                                     rng)
            : data::partition_iid(static_cast<std::size_t>(train.size()),
                                  static_cast<std::size_t>(c.devices), rng);
    for (int i = 0; i < c.devices; ++i) {
      const DeviceSpec d = pop.device(i);
      fl::Client& cl = fleet.add_client(
          data::subset(train, parts[static_cast<std::size_t>(i)]),
          client_config(c, i), d.profile);
      if (d.straggler) {
        cl.set_straggler(true);
        cl.set_volume(d.volume);
      }
    }
    return fleet;
  }

  // Population scale: the test set has its own stream; every device
  // synthesizes its own shard in add_device. No monolithic pool exists.
  spec.samples = c.test_samples;
  util::Rng trng = util::Rng(c.seed).fork(kTestStream);
  data::Dataset test = data::make_synthetic(spec, trng);
  fl::Fleet fleet(c.model, std::move(test), c.seed);
  for (int i = 0; i < c.devices; ++i) add_device(fleet, pop, i);
  return fleet;
}

fl::Client& add_device(fl::Fleet& fleet, const PopulationGenerator& pop,
                       int index) {
  const PopulationConfig& c = pop.config();
  const DeviceSpec d = pop.device(index);
  fl::Client* cl = nullptr;
  if (c.lazy_data) {
    // The recipe travels by value, so the factory outlives the generator.
    // nominal = the requested shard size; for label-skewed devices the
    // filtered shard may come out smaller, which planning tolerates (the
    // exact size takes over after first materialization).
    ShardRecipe recipe = shard_recipe(c, d);
    cl = &fleet.add_client(
        [recipe = std::move(recipe)]() { return make_shard(recipe); },
        static_cast<std::size_t>(d.shard_samples), client_config(c, index),
        d.profile);
  } else {
    cl = &fleet.add_client(device_shard(c, d), client_config(c, index),
                           d.profile);
  }
  if (d.straggler) {
    cl->set_straggler(true);
    cl->set_volume(d.volume);
  }
  return *cl;
}

void apply_channels(fl::NetworkSession& session,
                    const PopulationGenerator& pop) {
  // Client ids coincide with population indices for generator-built fleets
  // (build_fleet / add_device add devices in id order).
  for (int i = 0; i < pop.size(); ++i) {
    session.protocol().configure_device(i, pop.device(i).channel);
  }
}

}  // namespace helios::sim
