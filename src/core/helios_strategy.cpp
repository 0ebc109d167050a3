#include "core/helios_strategy.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/telemetry.h"

namespace helios::core {

namespace {

fl::AggOptions agg_options(const HeliosConfig& config) {
  fl::AggOptions opts;
  opts.hetero_volume_weights = config.hetero_aggregation;
  opts.per_neuron_merge = config.hetero_aggregation;
  opts.alpha_damping = config.alpha_damping;
  return opts;
}

}  // namespace

HeliosStrategy::HeliosStrategy(HeliosConfig config)
    : fl::SyncRoundStrategy("helios.cycle", agg_options(config)),
      config_(config) {}

std::string HeliosStrategy::name() const {
  return config_.hetero_aggregation ? "Helios" : "S.T. Only";
}

void HeliosStrategy::set_cycle_hook(
    std::function<void(fl::Fleet&, int)> hook) {
  cycle_hook_ = std::move(hook);
}

HeliosStrategy::StragglerState& HeliosStrategy::state_for(fl::Client& client) {
  auto it = state_.find(client.id());
  if (it == state_.end()) {
    StragglerState st;
    SoftTrainerConfig cfg;
    cfg.keep_ratio = client.volume();
    cfg.ps = config_.ps;
    cfg.seed = config_.seed + static_cast<std::uint64_t>(client.id()) * 7919;
    // Architecture-only queries: the estimation model avoids materializing
    // a hibernated client's replica just to read the neuron index.
    if (!geometry_) {
      geometry_ =
          std::make_shared<const NeuronGeometry>(client.estimation_model());
    }
    st.trainer = std::make_unique<SoftTrainer>(geometry_, cfg);
    st.regulator = std::make_unique<RotationRegulator>(
        st.trainer->neuron_total(), st.trainer->budget_total());
    it = state_.emplace(client.id(), std::move(st)).first;
  }
  return it->second;
}

void HeliosStrategy::begin_run(fl::Fleet& /*fleet*/) {
  state_.clear();
  geometry_.reset();
}

std::vector<fl::PlannedClient> HeliosStrategy::plan(fl::Fleet& fleet,
                                                    int cycle) {
  if (cycle_hook_) cycle_hook_(fleet, cycle);
  // Phase 1: choose each straggler's submodel for this cycle.
  HELIOS_TRACE_SPAN("helios.select_submodels", {{"cycle", cycle}});
  std::vector<fl::PlannedClient> plan = SyncRoundStrategy::plan(fleet, cycle);
  forced_.assign(plan.size(), 0);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    fl::Client& client = *plan[i].client;
    if (!client.is_straggler() || client.volume() >= 1.0) continue;
    StragglerState& st = state_for(client);
    std::vector<int> forced;
    if (config_.rotation_regulation) forced = st.regulator->overdue();
    forced_[i] = static_cast<int>(forced.size());
    plan[i].mask = st.trainer->select_mask(forced);
  }
  return plan;
}

void HeliosStrategy::after_aggregate(fl::Fleet& fleet,
                                     const fl::SyncRound& round) {
  // Phase 3: contribution updates + rotation bookkeeping, over what the
  // server aggregated. Only *delivered* updates count: if a straggler's
  // frame was dropped, the server never saw its parameters, so crediting
  // contributions and advancing the C_s rotation counters would drift the
  // soft-training state away from what actually aggregated (a cohort lost
  // whole closes as a clean no-op). U^ij is measured on the update
  // Server::aggregate received — the decoded upload when a session ran, so
  // a lossy codec's dequantized values — whether a tree folded it or not.
  obs::TelemetrySink* tel = fleet.telemetry();
  const fl::NetDelivery& net = round.net;
  std::size_t arrived = 0;  // net.arrived holds the delivered, in plan order
  for (std::size_t i = 0; i < round.plan.size(); ++i) {
    const fl::PlannedClient& p = round.plan[i];
    if (!net.pass_through && !net.delivered[i]) continue;
    const fl::ClientUpdate& received =
        net.pass_through ? round.updates[i] : net.arrived[arrived++];
    if (p.mask.empty()) continue;
    StragglerState& st = state_for(*p.client);
    st.trainer->update_contributions(round.global_before, received.params,
                                     p.mask);
    st.regulator->record_cycle(p.mask);
    if (tel) {
      // Skipped-cycle distribution: neurons with C_s = 0 / 1 / 2 / >= 3.
      std::array<int, 4> cs{0, 0, 0, 0};
      const int m = st.regulator->neuron_total();
      for (int j = 0; j < m; ++j) {
        cs[static_cast<std::size_t>(
            std::min(st.regulator->skipped_cycles(j), 3))]++;
      }
      tel->record_rotation(p.client->id(),
                           {forced_[i], cs[0], cs[1], cs[2], cs[3]});
    }
  }

  // Phase 4: pace adaptation during the first cycles (Sec. V-A Step 1 —
  // "Helios needs first few training cycles to finalize the stragglers
  // and model volumes"). Uses the *observed* per-device times, so under a
  // simulated network the wire (retries included) drives the volumes.
  if (round.cycle >= config_.pace_adaptation_cycles) return;
  auto observed_seconds = [&](std::size_t i) {
    return round.updates[i].train_seconds + net.comm_seconds[i];
  };
  double capable_pace = 0.0;
  for (std::size_t i = 0; i < round.plan.size(); ++i) {
    if (!round.plan[i].client->is_straggler()) {
      capable_pace = std::max(capable_pace, observed_seconds(i));
    }
  }
  if (capable_pace <= 0.0) return;
  for (std::size_t i = 0; i < round.plan.size(); ++i) {
    fl::Client& c = *round.plan[i].client;
    if (round.plan[i].mask.empty()) continue;
    if (!c.active()) continue;  // died this round
    const double ratio = observed_seconds(i) / capable_pace;
    // Outside a 10% band, rescale the volume toward the pace.
    if (ratio > 1.1 || ratio < 0.9) {
      const double next =
          std::clamp(c.volume() / ratio, config_.min_volume, 1.0);
      c.set_volume(next);
      StragglerState& st = state_for(c);
      st.trainer->set_keep_ratio(next);
      st.regulator->set_budget_total(st.trainer->budget_total());
    }
  }
}

void HeliosStrategy::io(fl::Fleet& fleet, fl::CheckpointArchive& ar) {
  // Sorted ids: the bytes must not depend on hash iteration order.
  std::vector<int> ids;
  ids.reserve(state_.size());
  for (const auto& [id, st] : state_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  // Per straggler: id, keep ratio, two vector lengths, the RNG position.
  ids.resize(ar.count(ids.size(),
                      4 + 8 + 4 + fl::CheckpointArchive::kRngBytes + 4));
  if (ar.loading()) {
    state_.clear();
    geometry_.reset();
  }
  for (int& id : ids) {
    ar.io(id);
    fl::Client* client = fleet.find_client(id);
    ar.expect(client != nullptr,
              "HeliosStrategy: checkpointed straggler id not in fleet");
    // state_for starts a restored straggler from the shared geometry; its
    // carried state lands on top.
    StragglerState& st = state_for(*client);
    st.trainer->io(ar);
    st.regulator->io(ar);
    if (ar.loading()) {
      st.regulator->set_budget_total(st.trainer->budget_total());
    }
  }
}

}  // namespace helios::core
