#include "fl/baselines.h"

#include <utility>

#include "fl/submodel.h"

namespace helios::fl {
namespace {

/// Straggler `id`'s mask stream. fork() does not advance the parent, so the
/// stream is the same whenever the straggler is first planned (joiners too).
util::Rng mask_stream(std::uint64_t seed, int id) {
  return util::Rng(seed).fork(static_cast<std::uint64_t>(id));
}

}  // namespace

// Both baselines aggregate with plain sample weighting (default AggOptions).
RandomSubmodel::RandomSubmodel(std::uint64_t seed)
    : SyncRoundStrategy("baseline.cycle"), seed_(seed) {}

void RandomSubmodel::begin_run(Fleet& /*fleet*/) { client_rng_.clear(); }

std::vector<PlannedClient> RandomSubmodel::plan(Fleet& fleet, int cycle) {
  std::vector<PlannedClient> plan = SyncRoundStrategy::plan(fleet, cycle);
  for (PlannedClient& p : plan) {
    Client& c = *p.client;
    if (!c.is_straggler() || c.volume() >= 1.0) continue;
    auto it = client_rng_.try_emplace(c.id(), mask_stream(seed_, c.id())).first;
    p.mask = random_volume_mask(c.estimation_model(), c.volume(), it->second);
  }
  return plan;
}

void RandomSubmodel::save_state(const Fleet& fleet,
                                CheckpointWriter& w) const {
  (void)fleet;
  w.u32(static_cast<std::uint32_t>(client_rng_.size()));
  for (const auto& [id, rng] : client_rng_) {
    w.i32(id);
    w.rng(rng.state());
  }
}

void RandomSubmodel::load_state(Fleet& fleet, CheckpointReader& r) {
  (void)fleet;
  client_rng_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const int id = r.i32();
    client_rng_.emplace(id, util::Rng::from_state(r.rng()));
  }
}

StaticPrune::StaticPrune(std::uint64_t seed)
    : SyncRoundStrategy("baseline.cycle"), seed_(seed) {}

void StaticPrune::begin_run(Fleet& /*fleet*/) { fixed_.clear(); }

std::vector<PlannedClient> StaticPrune::plan(Fleet& fleet, int cycle) {
  std::vector<PlannedClient> plan = SyncRoundStrategy::plan(fleet, cycle);
  for (PlannedClient& p : plan) {
    Client& c = *p.client;
    auto it = fixed_.find(c.id());
    if (it == fixed_.end()) {
      if (!c.is_straggler() || c.volume() >= 1.0) continue;
      // One fixed mask per straggler for the whole run.
      util::Rng rng = mask_stream(seed_, c.id());
      std::vector<std::uint8_t> mask =
          random_volume_mask(c.estimation_model(), c.volume(), rng);
      it = fixed_.emplace(c.id(), std::move(mask)).first;
    }
    p.mask = it->second;
  }
  return plan;
}

void StaticPrune::save_state(const Fleet& fleet, CheckpointWriter& w) const {
  (void)fleet;
  w.u32(static_cast<std::uint32_t>(fixed_.size()));
  for (const auto& [id, mask] : fixed_) {
    w.i32(id);
    w.vec_u8(mask);
  }
}

void StaticPrune::load_state(Fleet& fleet, CheckpointReader& r) {
  (void)fleet;
  fixed_.clear();
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const int id = r.i32();
    fixed_.emplace(id, r.vec_u8());
  }
}

}  // namespace helios::fl
