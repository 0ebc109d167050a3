#include "core/target.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "device/cost_model.h"
#include "fl/submodel.h"

namespace helios::core {
namespace {

// Cost of the submodel keeping the first budgets[i] neurons of layer i. FLOPs
// and uploads depend only on how many neurons per layer are active, not which;
// architecture-only, so the estimation model serves hibernated clients.
device::ArchitectureCost first_k_cost(
    nn::Model& model, const std::vector<fl::LayerNeuronRange>& ranges,
    const std::vector<int>& budgets) {
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(model.neuron_total()), 0);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    std::fill_n(mask.begin() + ranges[i].begin, budgets[i], std::uint8_t{1});
  }
  model.set_neuron_mask(mask);
  const device::ArchitectureCost arch = device::architecture_cost(model);
  model.clear_neuron_mask();
  return arch;
}

// The largest keep ratio in [min_volume, 1] whose cycle time
// `seconds_at(volume)` fits `pace_seconds` and whose peak memory fits the
// device. Shared by the per-client and the memoized fleet-wide paths.
template <typename SecondsAt>
double search_volume(fl::Client& client, double pace_seconds,
                     double min_volume, SecondsAt&& seconds_at) {
  if (min_volume <= 0.0 || min_volume > 1.0) {
    throw std::invalid_argument("profile_volume: bad min_volume");
  }
  if (pace_seconds <= 0.0) {
    throw std::invalid_argument("profile_volume: non-positive pace");
  }
  // Binary-search the largest feasible volume; cost is monotone in P.
  double lo = min_volume, hi = 1.0;
  if (seconds_at(lo) > pace_seconds) {
    return min_volume;  // even the smallest volume misses the pace
  }
  for (int iter = 0; iter < 20; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (seconds_at(mid) <= pace_seconds) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Memory constraint: shrink further while the peak footprint overflows.
  // The footprint is fixed by the architecture, so evaluate it once.
  double chosen = lo;
  const double peak_mb =
      chosen > min_volume ? device::peak_memory_mb(client.estimation_model(),
                                                   client.config().batch_size)
                          : 0.0;
  while (chosen > min_volume && peak_mb * chosen > client.profile().memory_mb) {
    chosen = std::max(min_volume, chosen - 0.05);
  }
  return chosen;
}

}  // namespace

const std::vector<double>& TargetDeterminer::default_levels() {
  static const std::vector<double> levels{0.5, 0.35, 0.25, 0.2};
  return levels;
}

void TargetDeterminer::assign_predefined(fl::Fleet& fleet,
                                         const StragglerReport& report,
                                         const std::vector<double>& levels) {
  if (levels.empty()) {
    throw std::invalid_argument("assign_predefined: no levels");
  }
  // report.timings is slowest-first; the slowest straggler gets the
  // smallest feasible level ordering: levels are listed strongest-straggler
  // -volume first, so walk stragglers slowest-first through the levels from
  // the back.
  std::size_t rank = 0;
  for (const auto& t : report.timings) {
    if (!t.straggler) continue;
    // Slowest straggler -> most aggressive (last) level.
    const std::size_t level_idx =
        levels.size() - 1 - std::min(rank++, levels.size() - 1);
    if (fl::Client* c = fleet.find_client(t.client_id)) {
      c->set_volume(levels[level_idx]);
    }
  }
}

double TargetDeterminer::cycle_seconds_at_volume(fl::Client& client,
                                                 double volume) {
  if (volume >= 1.0) return client.estimate_cycle_seconds({});
  nn::Model& model = client.estimation_model();
  const auto ranges = fl::layer_ranges(model);
  return client.cycle_seconds(
      first_k_cost(model, ranges, fl::layer_budgets(ranges, volume)));
}

double TargetDeterminer::profile_volume(fl::Client& client,
                                        double pace_seconds,
                                        double min_volume) {
  return search_volume(client, pace_seconds, min_volume, [&](double volume) {
    return cycle_seconds_at_volume(client, volume);
  });
}

std::vector<double> TargetDeterminer::assign_profiled(
    fl::Fleet& fleet, const StragglerReport& report, double min_volume) {
  if (report.pace_seconds <= 0.0) {
    throw std::invalid_argument("assign_profiled: report has no pace");
  }
  // Clients share the fleet's architecture, so a probe's architecture cost
  // depends only on its per-layer budgets: evaluate each distinct vector once
  // and scale it per client (cycle_seconds_at_volume's arithmetic, bitwise).
  const auto ranges = fl::layer_ranges(fleet.server().reference_model());
  std::map<std::vector<int>, device::ArchitectureCost> memo;
  std::vector<double> volumes(fleet.size(), 1.0);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fl::Client& c = fleet.client(i);
    if (!c.is_straggler()) continue;
    const double chosen = search_volume(
        c, report.pace_seconds, min_volume, [&](double volume) {
          if (volume >= 1.0) return c.estimate_cycle_seconds({});
          auto [it, fresh] =
              memo.try_emplace(fl::layer_budgets(ranges, volume));
          if (fresh) {
            it->second = first_k_cost(c.estimation_model(), ranges, it->first);
          }
          return c.cycle_seconds(it->second);
        });
    c.set_volume(chosen);
    volumes[i] = chosen;
  }
  return volumes;
}

}  // namespace helios::core
