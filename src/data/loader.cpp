#include <algorithm>

#include "data/loader.h"

#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "util/checkpoint_archive.h"

namespace helios::data {

DataLoader::DataLoader(const Dataset& dataset, int batch_size, util::Rng rng,
                       bool drop_last)
    : dataset_(dataset),
      batch_size_(batch_size),
      drop_last_(drop_last),
      rng_(rng),
      order_(static_cast<std::size_t>(dataset.size())) {
  if (batch_size <= 0) throw std::invalid_argument("DataLoader: batch <= 0");
  if (dataset.size() == 0) throw std::invalid_argument("DataLoader: empty dataset");
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  shuffle_order();
}

void DataLoader::shuffle_order() {
  rng_.shuffle(std::span<std::size_t>(order_));
  cursor_ = 0;
}

int DataLoader::batches_per_epoch() const {
  const int n = dataset_.size();
  if (drop_last_) return n / batch_size_;
  return (n + batch_size_ - 1) / batch_size_;
}

void DataLoader::reset() { shuffle_order(); }

void DataLoader::restore(const util::RngState& rng,
                         std::vector<std::size_t> order, std::size_t cursor) {
  if (order.size() != order_.size()) {
    throw util::CheckpointError("DataLoader::restore: order size mismatch");
  }
  if (!valid_epoch_order(order, cursor)) {
    throw util::CheckpointError(
        "DataLoader::restore: order is not a permutation or cursor out of "
        "range");
  }
  rng_ = util::Rng::from_state(rng);
  order_ = std::move(order);
  cursor_ = cursor;
}

Batch DataLoader::next() {
  const std::size_t n = order_.size();
  if (cursor_ >= n ||
      (drop_last_ && cursor_ + static_cast<std::size_t>(batch_size_) > n)) {
    shuffle_order();
  }
  const std::size_t take =
      std::min(static_cast<std::size_t>(batch_size_), n - cursor_);
  Batch b;
  const std::size_t sample = static_cast<std::size_t>(dataset_.channels()) *
                             dataset_.height() * dataset_.width();
  b.images = Tensor({static_cast<int>(take), dataset_.channels(),
                     dataset_.height(), dataset_.width()});
  b.labels.reserve(take);
  float* dst = b.images.data();
  const float* src = dataset_.images.data();
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t idx = order_[cursor_ + i];
    std::copy_n(src + idx * sample, sample, dst + i * sample);
    b.labels.push_back(dataset_.labels[idx]);
  }
  cursor_ += take;
  return b;
}

bool valid_epoch_order(std::span<const std::size_t> order,
                       std::size_t cursor) {
  if (cursor > order.size()) return false;
  std::vector<std::uint8_t> seen(order.size(), 0);
  for (std::size_t index : order) {
    if (index >= order.size() || seen[index] != 0) return false;
    seen[index] = 1;
  }
  return true;
}

}  // namespace helios::data
