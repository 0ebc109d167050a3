#include "sim/churn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "fl/transport.h"
#include "obs/telemetry.h"

namespace helios::sim {
namespace {

constexpr std::uint64_t kArrivalStream = 0xA221;
constexpr std::uint64_t kLifetimeStream = 0x11FE;
/// Mean inter-arrival gaps the clock may lie past the pending arrival.
/// Catching up draws one gap at a time, so a clock beyond this (a restored
/// clock no run reaches) is refused instead of drawn up to.
constexpr double kMaxPendingGaps = 1e6;

}  // namespace

ChurnProcess::ChurnProcess(const PopulationGenerator& pop,
                           ChurnOptions options)
    : pop_(pop),
      options_(options),
      arrival_rng_(util::Rng(options.seed).fork(kArrivalStream)) {
  if (options_.arrival_rate_per_s < 0.0 || options_.mean_lifetime_s < 0.0) {
    throw std::invalid_argument("ChurnProcess: negative rate or lifetime");
  }
}

double ChurnProcess::lifetime(int id) const {
  if (options_.mean_lifetime_s <= 0.0) return -1.0;
  // Per-device forked draw: one lifetime per device id, independent of
  // every other device and of when it joins.
  util::Rng rng = util::Rng(options_.seed)
                      .fork(kLifetimeStream)
                      .fork(static_cast<std::uint64_t>(id));
  const double u = std::min(rng.uniform(), 1.0 - 1e-12);
  return -std::log(1.0 - u) * options_.mean_lifetime_s;
}

double ChurnProcess::next_exponential(double mean) {
  const double u = std::min(arrival_rng_.uniform(), 1.0 - 1e-12);
  return -std::log(1.0 - u) * mean;
}

double ChurnProcess::death_time(int id) const {
  auto it = death_at_.find(id);
  return it == death_at_.end() ? -1.0 : it->second;
}

RoundChurn ChurnProcess::step(fl::Fleet& fleet, int cycle) {
  RoundChurn churn;
  const double now = fleet.clock().now();

  // First sight of a device (initial fleet or a just-admitted joiner):
  // schedule its departure from its forked lifetime.
  if (options_.mean_lifetime_s > 0.0) {
    for (auto& c : fleet.clients()) {
      if (c->active() && death_at_.find(c->id()) == death_at_.end()) {
        const double life = lifetime(c->id());
        death_at_.emplace(c->id(), life < 0.0 ? -1.0 : now + life);
      }
    }
  }

  // Departures due by now: prefer the network death path (cuts frames in
  // flight, records helios.net death telemetry) when a simulated session is
  // attached; deactivate directly otherwise.
  fl::NetworkSession* session = fleet.network();
  for (auto& c : fleet.clients()) {
    if (!c->active()) continue;
    const double death = death_time(c->id());
    if (death < 0.0 || death > now) continue;
    if (session != nullptr && session->simulated() &&
        session->protocol().has_device(c->id())) {
      session->protocol().script_death(c->id(), death);
    }
    c->set_active(false);
    c->hibernate();
    churn.departed.push_back(c->id());
  }

  // Arrivals due by now. The inter-arrival stream initializes lazily so the
  // process can attach to a fleet whose clock already advanced.
  if (options_.arrival_rate_per_s > 0.0) {
    if (next_arrival_s_ < 0.0) {
      next_arrival_s_ = now + next_exponential(1.0 /
                                               options_.arrival_rate_per_s);
    }
    if ((now - next_arrival_s_) * options_.arrival_rate_per_s >
        kMaxPendingGaps) {
      throw fl::CheckpointError(
          "ChurnProcess: clock " + std::to_string(now) +
          " s lies more than 1e6 mean arrival gaps past the pending arrival");
    }
    const int cap = options_.max_devices > 0 ? options_.max_devices
                                             : pop_.config().devices;
    while (next_arrival_s_ <= now &&
           static_cast<int>(fleet.size()) < cap) {
      const int index = static_cast<int>(fleet.size());
      fl::Client& joiner = add_device(fleet, pop_, index);
      joined_indices_.push_back(index);
      if (options_.admit_arrivals) manager_.admit(fleet, joiner.id());
      if (options_.mean_lifetime_s > 0.0) {
        const double life = lifetime(joiner.id());
        death_at_.emplace(joiner.id(),
                          life < 0.0 ? -1.0 : next_arrival_s_ + life);
      }
      churn.arrived.push_back(joiner.id());
      next_arrival_s_ += next_exponential(1.0 / options_.arrival_rate_per_s);
    }
    // Cap reached: park the pending arrival past `now` so the stream stays
    // consistent if capacity frees up later.
    while (next_arrival_s_ <= now) {
      next_arrival_s_ += next_exponential(1.0 / options_.arrival_rate_per_s);
    }
  }

  if (obs::TelemetrySink* tel = fleet.telemetry();
      tel != nullptr &&
      (!churn.arrived.empty() || !churn.departed.empty())) {
    tel->record_churn(cycle, {static_cast<int>(churn.arrived.size()),
                              static_cast<int>(churn.departed.size()),
                              fleet.size()});
  }
  return churn;
}

void ChurnProcess::io(fl::Fleet& fleet, fl::CheckpointArchive& ar) {
  ar.io(arrival_rng_);
  ar.io(next_arrival_s_);
  ar.io_map(death_at_, 4 + 8, [&](int, double& at) { ar.io(at); });
  ar.io(joined_indices_);
  if (!ar.loading()) return;
  // Replay the joins into the rebuilt fleet (which holds only the initial
  // population). Admission is skipped: the snapshot's per-client section
  // overwrites straggler/volume/active flags right after this.
  for (int index : joined_indices_) {
    if (index < static_cast<int>(fleet.size())) continue;
    ar.expect(index == static_cast<int>(fleet.size()), [&] {
      return "ChurnProcess: joiner index " + std::to_string(index) +
             " does not extend the rebuilt fleet contiguously";
    });
    add_device(fleet, pop_, index);
  }
}

}  // namespace helios::sim
