// Submodel (expected-model-volume) helpers shared by the Helios soft-trainer
// and the Random / static-pruning baselines.
//
// A *volume* is a keep-ratio P applied per maskable layer: layer i with n_i
// neurons trains k_i = max(1, round(P * n_i)) of them in a cycle (the paper's
// P_i n_i). Masks are expressed over the model's global neuron index.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/model.h"
#include "util/rng.h"

namespace helios::fl {

/// Contiguous run of the global neuron index belonging to one leader layer.
struct LayerNeuronRange {
  nn::Layer* leader = nullptr;
  int begin = 0;  // first global neuron id
  int count = 0;  // number of neurons in the layer
};

/// Per-leader-layer ranges, in leaf order. Ranges tile [0, neuron_total).
std::vector<LayerNeuronRange> layer_ranges(nn::Model& model);

/// k_i = max(1, round(keep_ratio * n_i)) for each range.
std::vector<int> layer_budgets(const std::vector<LayerNeuronRange>& ranges,
                               double keep_ratio);

/// Uniform-random submodel at the given volume (the Random baseline [12]
/// draws a fresh one every cycle; the static-pruning baseline draws once).
std::vector<std::uint8_t> random_volume_mask(nn::Model& model,
                                             double keep_ratio,
                                             util::Rng& rng);

}  // namespace helios::fl
