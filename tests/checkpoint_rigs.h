// The checkpoint test configurations: one per section layout, each built
// identically on demand, so a payload saved from one rig restores into a
// freshly built one. The payload pins (checkpoint_digest_test) and the
// hostile-payload sweep (checkpoint_hostile_test) share them.
#pragma once

#include <memory>
#include <string>

#include "core/helios_strategy.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/baselines.h"
#include "fl/checkpoint.h"
#include "fl/hierarchy.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "sim/churn.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "test_support.h"

namespace helios::testing {

enum class RigKind {
  /// Helios on mobile_longtail(6) over a depth-3 aggregator tree, with a
  /// lossy int8-per-neuron session (error-feedback residuals, one channel
  /// override, a scripted outage and a scripted death) and churn joiners:
  /// every component section, the session section and Helios' state.
  kHeliosTree,
  /// AFO on lazy mobile_longtail(64) with a 1/8 cohort sampler: parked
  /// devices write empty bases, never-trained lazy clients no loader state,
  /// hibernated ones a stashed loader.
  kAfoSampled,
  kAsync,
  kAsyncPeriod,
  kRandom,
  kStatic,
  /// SyncFL with momentum: participating clients carry a velocity.
  kSyncMomentum,
};

/// One configuration's fleet, components and strategy. Members are declared
/// so that everything a member refers to outlives it.
struct CheckpointRig {
  std::unique_ptr<sim::PopulationGenerator> pop;
  std::unique_ptr<sim::CohortSampler> sampler;
  std::unique_ptr<fl::Fleet> fleet;
  std::unique_ptr<sim::ChurnProcess> churn;
  std::unique_ptr<fl::HierarchySession> hier;
  std::unique_ptr<fl::NetworkSession> session;
  std::unique_ptr<fl::Strategy> strategy;
  /// Rounds the pinned checkpoint is taken after.
  int rounds = 3;

  /// Runs the pinned rounds and returns the checkpoint payload.
  std::string pinned_payload() {
    fl::RunResult partial;
    partial.method = strategy->name();
    strategy->run_range(*fleet, partial, 0, rounds);
    return fl::make_checkpoint_payload(*fleet, strategy.get(), partial);
  }
};

inline CheckpointRig make_rig(RigKind kind) {
  CheckpointRig rig;
  switch (kind) {
    case RigKind::kHeliosTree: {
      rig.pop = std::make_unique<sim::PopulationGenerator>(
          sim::mobile_longtail(6));
      rig.fleet = std::make_unique<fl::Fleet>(sim::build_fleet(*rig.pop));
      fl::Fleet& fleet = *rig.fleet;
      const core::StragglerReport report =
          core::StragglerIdentifier::time_based(fleet, 2);
      core::StragglerIdentifier::apply(fleet, report);
      core::TargetDeterminer::assign_profiled(fleet, report);
      // Rounds last about 0.1 virtual seconds.
      sim::ChurnOptions copts;
      copts.arrival_rate_per_s = 8.0;
      copts.mean_lifetime_s = 4000.0;
      copts.seed = 13;
      copts.max_devices = 9;
      copts.admit_arrivals = true;
      rig.churn = std::make_unique<sim::ChurnProcess>(*rig.pop, copts);
      agg::TreeTopology topo;
      topo.edge_nodes = 4;
      topo.fanout = 2;
      topo.edge_link.jitter_s = 0.01;
      topo.edge_link.loss_prob = 0.05;
      topo.edge_link.latency_s = 0.005;
      topo.regional_link.loss_prob = 0.05;
      rig.hier = std::make_unique<fl::HierarchySession>(fleet, topo);
      net::NetworkOptions nopts;
      nopts.mode = net::NetMode::kSimulated;
      nopts.payload_codec = codec::CodecId::kInt8PerNeuron;
      nopts.error_feedback = true;
      nopts.channel.loss_prob = 0.05;
      nopts.channel.latency_s = 0.01;
      nopts.channel.jitter_s = 0.02;
      rig.session = std::make_unique<fl::NetworkSession>(fleet, nopts);
      net::ChannelConfig slow;
      slow.bandwidth_mbps = 0.5;
      slow.latency_s = 0.05;
      slow.loss_prob = 0.1;
      rig.session->protocol().configure_device(1, slow);
      rig.session->protocol().script_outage(2, 0.05, 0.2);
      rig.session->protocol().script_death(3, 0.15);
      fleet.register_checkpointable("churn", rig.churn.get());
      fleet.register_checkpointable("hierarchy", rig.hier.get());
      fleet.register_checkpointable("codec_ef", rig.session.get());
      auto helios =
          std::make_unique<core::HeliosStrategy>(core::HeliosConfig{});
      helios->set_cycle_hook(
          [churn = rig.churn.get()](fl::Fleet& f, int cycle) {
            churn->step(f, cycle);
          });
      rig.strategy = std::move(helios);
      rig.rounds = 4;
      break;
    }
    case RigKind::kAfoSampled: {
      sim::CohortSampler::Options sopts;
      sopts.fraction = 0.125;
      sopts.seed = 17;
      rig.sampler = std::make_unique<sim::CohortSampler>(sopts);
      rig.fleet =
          std::make_unique<fl::Fleet>(make_sampled_longtail(*rig.sampler));
      rig.strategy = std::make_unique<fl::Afo>();
      break;
    }
    case RigKind::kAsync:
      rig.fleet = std::make_unique<fl::Fleet>(make_fleet());
      rig.strategy = std::make_unique<fl::AsyncFL>();
      break;
    case RigKind::kAsyncPeriod:
      rig.fleet = std::make_unique<fl::Fleet>(make_fleet());
      rig.strategy = std::make_unique<fl::AsyncFL>(2);
      break;
    case RigKind::kRandom:
      rig.fleet = std::make_unique<fl::Fleet>(make_fleet());
      rig.strategy = std::make_unique<fl::RandomSubmodel>();
      break;
    case RigKind::kStatic:
      rig.fleet = std::make_unique<fl::Fleet>(make_fleet());
      rig.strategy = std::make_unique<fl::StaticPrune>();
      break;
    case RigKind::kSyncMomentum: {
      FleetOptions o;
      o.momentum = 0.9F;
      rig.fleet = std::make_unique<fl::Fleet>(make_fleet(o));
      rig.strategy = std::make_unique<fl::SyncFL>(0.75);
      break;
    }
  }
  return rig;
}

}  // namespace helios::testing
