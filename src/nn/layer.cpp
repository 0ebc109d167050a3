#include "nn/layer.h"

#include <cmath>
#include <stdexcept>

namespace helios::nn {

void Layer::zero_grad() {
  for (Tensor* g : grads()) g->fill(0.0F);
}

void Layer::set_mask(std::span<const std::uint8_t> mask) {
  if (!mask.empty() && neuron_count() == 0) {
    throw std::logic_error(name() + ": layer is not maskable");
  }
}

void check_mask_size(std::span<const std::uint8_t> mask, int expected,
                     const char* layer_name) {
  if (static_cast<int>(mask.size()) != expected) {
    throw std::invalid_argument(std::string(layer_name) +
                                ": mask size " + std::to_string(mask.size()) +
                                " != neuron count " + std::to_string(expected));
  }
}

Tensor he_weights(tensor::Shape shape, int fan_in, util::Rng* init) {
  if (init == nullptr) return Tensor::zeros(std::move(shape));
  return Tensor::randn(std::move(shape), *init,
                       std::sqrt(2.0F / static_cast<float>(fan_in)));
}

int active_count(std::span<const std::uint8_t> mask) {
  int n = 0;
  for (auto b : mask) n += (b != 0);
  return n;
}

}  // namespace helios::nn
