#include "fl/sync.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace helios::fl {

SyncFL::SyncFL(double participation, std::uint64_t seed)
    : SyncRoundStrategy("sync.cycle"),
      participation_(participation),
      seed_(seed) {
  if (participation <= 0.0 || participation > 1.0) {
    throw std::invalid_argument("SyncFL: participation out of (0, 1]");
  }
}

std::string SyncFL::name() const {
  if (participation_ >= 1.0) return "Syn. FL";
  return "Syn. FL (C=" + std::to_string(participation_).substr(0, 4) + ")";
}

void SyncFL::begin_run(Fleet& /*fleet*/) { rng_ = util::Rng(seed_); }

std::vector<PlannedClient> SyncFL::plan(Fleet& fleet, int cycle) {
  // The fleet's population sampler (if set) draws the cohort first, then
  // the participation fraction subsamples it from this run's RNG.
  std::vector<PlannedClient> cohort = SyncRoundStrategy::plan(fleet, cycle);
  if (participation_ >= 1.0 || cohort.empty()) return cohort;
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             participation_ * static_cast<double>(cohort.size()))));
  std::vector<PlannedClient> participants;
  for (std::size_t idx : rng_.sample_without_replacement(cohort.size(), k)) {
    participants.push_back(cohort[idx]);
  }
  return participants;
}

}  // namespace helios::fl
