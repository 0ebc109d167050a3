// Seeded Poisson churn on the virtual clock: devices stream into and out
// of the collaboration mid-run.
//
// Arrivals follow a Poisson process (exponential inter-arrival times from
// the process's own stream); each device's lifetime is exponential and
// drawn from Rng(seed).fork(device_id) — the per-device forking contract —
// so a new arrival never changes when existing devices depart. Arrivals go
// through the existing core::ScalabilityManager admission path (pace
// estimation, straggler flagging, volume assignment); departures go
// through the net death path when a simulated NetworkSession is attached
// (the channel dies, frames in flight are cut), and deactivate the client
// directly otherwise.
//
// Drive it from a strategy's per-cycle hook:
//
//   sim::ChurnProcess churn(pop, {.arrival_rate_per_s = 0.02,
//                                 .mean_lifetime_s = 300.0});
//   strategy.set_cycle_hook([&](fl::Fleet& f, int cycle) {
//     churn.step(f, cycle);
//   });
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/scalability.h"
#include "fl/checkpoint.h"
#include "sim/population.h"

namespace helios::sim {

struct ChurnOptions {
  /// Poisson arrival rate, devices per virtual second (0 = no arrivals).
  double arrival_rate_per_s = 0.0;
  /// Mean exponential lifetime after joining, virtual seconds
  /// (0 = immortal, no departures).
  double mean_lifetime_s = 0.0;
  std::uint64_t seed = 77;
  /// Hard cap on the fleet's total size, arrivals included (0 = the
  /// population config's device count; arrivals draw specs past it).
  int max_devices = 0;
  /// Run ScalabilityManager admission for each arrival (straggler
  /// identification + volume assignment before its first cycle).
  bool admit_arrivals = true;
};

/// What one step() applied to the fleet.
struct RoundChurn {
  std::vector<int> arrived;   ///< client ids admitted this step
  std::vector<int> departed;  ///< client ids deactivated this step
};

class ChurnProcess : public fl::Checkpointable {
 public:
  /// The generator supplies joiner device specs (indices beyond the initial
  /// fleet) and must outlive the process.
  ChurnProcess(const PopulationGenerator& pop, ChurnOptions options);

  /// Applies all churn events due at the fleet's current virtual time:
  /// departs devices whose lifetime elapsed, admits devices whose arrival
  /// time passed. Deterministic: events depend only on (seed, device id,
  /// virtual time), never on wall clock or thread count. Call once per
  /// cycle (e.g. from a strategy cycle hook). Reports to the fleet's
  /// telemetry sink (helios.sim.* metrics). Throws CheckpointError when the
  /// clock lies more than 1e6 mean arrival gaps past the pending arrival,
  /// which only a corrupt restored clock does.
  RoundChurn step(fl::Fleet& fleet, int cycle);

  /// Device id's scheduled departure time (negative = immortal or not yet
  /// joined/seen).
  double death_time(int id) const;

  /// Checkpointable: snapshot = (arrival-stream RNG position, pending
  /// arrival time, departure schedule, joiner indices). A restore re-adds
  /// the joiners to the rebuilt fleet — BEFORE the checkpoint's per-client
  /// section loads, so the roster matches — skipping admission (the
  /// snapshotted client flags land afterwards anyway).
  void io(fl::Fleet& fleet, fl::CheckpointArchive& ar) override;

 private:
  double lifetime(int id) const;
  double next_exponential(double mean);

  const PopulationGenerator& pop_;
  ChurnOptions options_;
  util::Rng arrival_rng_;
  core::ScalabilityManager manager_;
  double next_arrival_s_ = -1.0;  ///< lazily initialized on first step
  std::map<int, double> death_at_;  ///< ordered: checkpoint bytes by id
  /// Population indices of devices this process added mid-run, in join
  /// order (what a restore replays into a rebuilt fleet).
  std::vector<int> joined_indices_;
};

}  // namespace helios::sim
