#include "core/rotation.h"

#include <stdexcept>

#include "obs/trace.h"

namespace helios::core {

RotationRegulator::RotationRegulator(int neuron_total, int budget_total)
    : skipped_(static_cast<std::size_t>(neuron_total), 0) {
  if (neuron_total <= 0) {
    throw std::invalid_argument("RotationRegulator: no neurons");
  }
  set_budget_total(budget_total);
}

void RotationRegulator::set_budget_total(int budget_total) {
  if (budget_total <= 0) {
    throw std::invalid_argument("RotationRegulator: bad budget");
  }
  threshold_ = 1.0 + static_cast<double>(skipped_.size()) /
                         static_cast<double>(budget_total);
}

void RotationRegulator::record_cycle(
    std::span<const std::uint8_t> trained_mask) {
  HELIOS_TRACE_SPAN("rotation.record_cycle", {{"neurons", skipped_.size()}});
  if (trained_mask.empty()) {
    for (int& s : skipped_) s = 0;
    return;
  }
  if (trained_mask.size() != skipped_.size()) {
    throw std::invalid_argument("RotationRegulator: mask size mismatch");
  }
  for (std::size_t j = 0; j < skipped_.size(); ++j) {
    if (trained_mask[j]) {
      skipped_[j] = 0;
    } else {
      ++skipped_[j];
    }
  }
}

std::vector<int> RotationRegulator::overdue() const {
  std::vector<int> out;
  for (std::size_t j = 0; j < skipped_.size(); ++j) {
    if (static_cast<double>(skipped_[j]) >= threshold_) {
      out.push_back(static_cast<int>(j));
    }
  }
  return out;
}

void RotationRegulator::io(util::CheckpointArchive& ar) {
  const std::size_t neurons = skipped_.size();
  ar.io(skipped_);
  ar.expect(skipped_.size() == neurons, "RotationRegulator: C_s size mismatch");
}

int RotationRegulator::skipped_cycles(int neuron) const {
  return skipped_.at(static_cast<std::size_t>(neuron));
}

}  // namespace helios::core
