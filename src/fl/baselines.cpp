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

void RandomSubmodel::io(Fleet& /*fleet*/, CheckpointArchive& ar) {
  ar.io_map(client_rng_, 4 + CheckpointArchive::kRngBytes,
            [&](int, util::Rng& rng) { ar.io(rng); });
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

void StaticPrune::io(Fleet& fleet, CheckpointArchive& ar) {
  const auto neurons = static_cast<std::size_t>(fleet.server().neuron_total());
  ar.io_map(fixed_, 4 + 4, [&](int, std::vector<std::uint8_t>& mask) {
    ar.io(mask);
    ar.expect(mask.size() == neurons,
              "StaticPrune: checkpointed mask does not match the model");
  });
}

}  // namespace helios::fl
