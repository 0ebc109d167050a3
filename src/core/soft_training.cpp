#include "core/soft_training.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "obs/trace.h"

namespace helios::core {

namespace {

/// Per-neuron mean absolute parameter change between `before` and `after`,
/// restricted to the neurons set in `mask` (others stay 0): the U^ij
/// statistic, in slice order with double sums.
std::vector<double> neuron_change_means(
    std::span<const nn::NeuronInfo> neurons, std::span<const float> before,
    std::span<const float> after, std::span<const std::uint8_t> mask) {
  std::vector<double> means(neurons.size(), 0.0);
  for (std::size_t j = 0; j < neurons.size(); ++j) {
    if (!mask.empty() && !mask[j]) continue;
    double change = 0.0;
    std::size_t params = 0;
    for (const nn::FlatSlice& s : neurons[j].slices) {
      if (s.offset + s.length > before.size() ||
          s.offset + s.length > after.size()) {
        throw std::out_of_range("neuron_change_means: slice out of range");
      }
      for (std::size_t f = s.offset; f < s.offset + s.length; ++f) {
        change += std::fabs(static_cast<double>(after[f]) - before[f]);
      }
      params += s.length;
    }
    if (params > 0) means[j] = change / static_cast<double>(params);
  }
  return means;
}

}  // namespace

NeuronGeometry::NeuronGeometry(nn::Model& model)
    : ranges(fl::layer_ranges(model)), neurons(model.neurons()) {}

SoftTrainer::SoftTrainer(nn::Model& model, SoftTrainerConfig config)
    : SoftTrainer(std::make_shared<const NeuronGeometry>(model), config) {}

SoftTrainer::SoftTrainer(std::shared_ptr<const NeuronGeometry> geometry,
                         SoftTrainerConfig config)
    : config_(config),
      geometry_(std::move(geometry)),
      u_(geometry_->neurons.size(), 0.0),
      rng_(config.seed) {
  if (!(config_.keep_ratio > 0.0 && config_.keep_ratio <= 1.0)) {
    throw std::invalid_argument("SoftTrainer: keep_ratio out of (0, 1]");
  }
  if (!(config_.ps > 0.0 && config_.ps <= 1.0)) {
    throw std::invalid_argument("SoftTrainer: ps out of (0, 1]");
  }
}

void SoftTrainer::set_keep_ratio(double p) {
  if (!(p > 0.0 && p <= 1.0)) {
    throw std::invalid_argument("SoftTrainer: keep_ratio out of (0, 1]");
  }
  config_.keep_ratio = p;
}

void SoftTrainer::io(util::CheckpointArchive& ar) {
  const std::size_t neurons = u_.size();
  ar.io(config_.keep_ratio);
  ar.expect(config_.keep_ratio > 0.0 && config_.keep_ratio <= 1.0,
            "SoftTrainer: keep_ratio out of (0, 1]");
  ar.io(u_);
  ar.expect(u_.size() == neurons &&
                std::all_of(u_.begin(), u_.end(),
                            [](double u) { return std::isfinite(u); }),
            "SoftTrainer: contributions do not match the model");
  ar.io(rng_);
}

int SoftTrainer::budget_total() const {
  const auto budgets = fl::layer_budgets(geometry_->ranges, config_.keep_ratio);
  return std::accumulate(budgets.begin(), budgets.end(), 0);
}

std::vector<std::uint8_t> SoftTrainer::select_mask(
    std::span<const int> forced) {
  HELIOS_TRACE_SPAN("soft_training.select_mask",
                    {{"neurons", u_.size()}, {"forced", forced.size()}});
  std::vector<std::uint8_t> mask(u_.size(), 0);
  const std::vector<fl::LayerNeuronRange>& ranges = geometry_->ranges;
  const auto budgets = fl::layer_budgets(ranges, config_.keep_ratio);

  // Mark forced neurons first (rotation regulation, Sec. VI-A).
  std::vector<std::uint8_t> is_forced(u_.size(), 0);
  for (int id : forced) {
    if (id < 0 || static_cast<std::size_t>(id) >= u_.size()) {
      throw std::out_of_range("SoftTrainer: forced neuron out of range");
    }
    is_forced[static_cast<std::size_t>(id)] = 1;
    mask[static_cast<std::size_t>(id)] = 1;
  }

  for (std::size_t r = 0; r < ranges.size(); ++r) {
    const int begin = ranges[r].begin;
    const int count = ranges[r].count;
    const int budget = budgets[r];
    int chosen = 0;
    for (int j = 0; j < count; ++j) chosen += mask[static_cast<std::size_t>(begin + j)];

    // Top-U picks: ceil(ps * budget), at least 1 (Eq. 2's K = Ps*Pi*ni).
    const int top_quota = std::min(
        budget, std::max(1, static_cast<int>(std::ceil(config_.ps * budget))));
    std::vector<int> order(static_cast<std::size_t>(count));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return u_[static_cast<std::size_t>(begin + a)] >
             u_[static_cast<std::size_t>(begin + b)];
    });
    int top_taken = 0;
    for (int j : order) {
      if (chosen >= budget || top_taken >= top_quota) break;
      auto& bit = mask[static_cast<std::size_t>(begin + j)];
      if (bit) {
        // Already forced in; still counts toward the top quota if it is a
        // top-U neuron.
        ++top_taken;
        continue;
      }
      bit = 1;
      ++chosen;
      ++top_taken;
    }

    // Random fill from the remaining (lower-contribution) neurons.
    std::vector<int> rest;
    rest.reserve(static_cast<std::size_t>(count));
    for (int j = 0; j < count; ++j) {
      if (!mask[static_cast<std::size_t>(begin + j)]) rest.push_back(j);
    }
    while (chosen < budget && !rest.empty()) {
      const std::size_t pick = static_cast<std::size_t>(
          rng_.uniform_int(static_cast<std::uint64_t>(rest.size())));
      mask[static_cast<std::size_t>(begin + rest[pick])] = 1;
      rest[pick] = rest.back();
      rest.pop_back();
      ++chosen;
    }
  }
  return mask;
}

void SoftTrainer::update_contributions(
    std::span<const float> before, std::span<const float> after,
    std::span<const std::uint8_t> trained_mask) {
  HELIOS_TRACE_SPAN("soft_training.update_contributions",
                    {{"neurons", u_.size()}});
  if (before.size() != after.size()) {
    throw std::invalid_argument("update_contributions: size mismatch");
  }
  if (!trained_mask.empty() && trained_mask.size() != u_.size()) {
    throw std::invalid_argument("update_contributions: bad mask size");
  }
  const std::vector<double> means =
      neuron_change_means(geometry_->neurons, before, after, trained_mask);
  for (std::size_t j = 0; j < u_.size(); ++j) {
    if (!trained_mask.empty() && !trained_mask[j]) continue;
    u_[j] = means[j];
  }
}

}  // namespace helios::core
