#include "fl/submodel.h"

#include <cmath>
#include <stdexcept>

namespace helios::fl {

std::vector<LayerNeuronRange> layer_ranges(nn::Model& model) {
  std::vector<LayerNeuronRange> out;
  const auto& neurons = model.neurons();
  for (std::size_t i = 0; i < neurons.size(); ++i) {
    if (out.empty() || out.back().leader != neurons[i].leader) {
      out.push_back({neurons[i].leader, static_cast<int>(i), 0});
    }
    ++out.back().count;
  }
  return out;
}

std::vector<int> layer_budgets(const std::vector<LayerNeuronRange>& ranges,
                               double keep_ratio) {
  if (!(keep_ratio > 0.0 && keep_ratio <= 1.0)) {
    throw std::invalid_argument("layer_budgets: keep_ratio out of (0, 1]");
  }
  std::vector<int> budgets;
  budgets.reserve(ranges.size());
  for (const auto& r : ranges) {
    const int k = static_cast<int>(std::lround(keep_ratio * r.count));
    budgets.push_back(std::min(r.count, std::max(1, k)));
  }
  return budgets;
}

std::vector<std::uint8_t> random_volume_mask(nn::Model& model,
                                             double keep_ratio,
                                             util::Rng& rng) {
  const auto ranges = layer_ranges(model);
  const auto budgets = layer_budgets(ranges, keep_ratio);
  std::vector<std::uint8_t> mask(
      static_cast<std::size_t>(model.neuron_total()), 0);
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const auto picks = rng.sample_without_replacement(
        static_cast<std::size_t>(ranges[i].count),
        static_cast<std::size_t>(budgets[i]));
    for (std::size_t p : picks) {
      mask[static_cast<std::size_t>(ranges[i].begin) + p] = 1;
    }
  }
  return mask;
}

int mask_active_count(const std::vector<std::uint8_t>& mask) {
  int n = 0;
  for (auto b : mask) n += (b != 0);
  return n;
}

}  // namespace helios::fl
