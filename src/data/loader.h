// Shuffling mini-batch iterator over a Dataset.
#pragma once

#include <span>

#include "data/dataset.h"
#include "util/rng.h"

namespace helios::data {

/// One mini-batch: images [B, C, H, W] plus labels.
struct Batch {
  Tensor images;
  std::vector<int> labels;
  int size() const { return images.empty() ? 0 : images.dim(0); }
};

/// Iterates a dataset in shuffled mini-batches; reshuffles every epoch.
/// Holds a reference to the dataset — keep the dataset alive.
class DataLoader {
 public:
  DataLoader(const Dataset& dataset, int batch_size, util::Rng rng,
             bool drop_last = false);

  /// Number of batches per epoch.
  int batches_per_epoch() const;

  /// Next batch; starts a new (re-shuffled) epoch automatically.
  Batch next();

  /// Resets to the start of a fresh epoch.
  void reset();

  int batch_size() const { return batch_size_; }
  const Dataset& dataset() const { return dataset_; }

  // Checkpoint hooks. The full iteration state is (rng, order, cursor):
  // shuffle_order() permutes the *existing* order in place, so the order
  // vector's content feeds into every future shuffle and must round-trip
  // alongside the rng position for bit-identical resume.
  util::RngState rng_state() const { return rng_.state(); }
  const std::vector<std::size_t>& order() const { return order_; }
  std::size_t cursor() const { return cursor_; }
  /// Restores a snapshotted iteration position. Throws
  /// util::CheckpointError unless `order` is a permutation of the dataset
  /// indices and `cursor` lies within it.
  void restore(const util::RngState& rng, std::vector<std::size_t> order,
               std::size_t cursor);

 private:
  const Dataset& dataset_;
  int batch_size_;
  bool drop_last_;
  util::Rng rng_;
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;

  void shuffle_order();
};

/// Whether `order` is a permutation of [0, order.size()) and `cursor` lies
/// within it: an iteration position a DataLoader over that many samples can
/// resume from.
bool valid_epoch_order(std::span<const std::size_t> order, std::size_t cursor);

/// Full-dataset accuracy of `logits_fn` style models is provided at the FL
/// layer; here we expose simple batched iteration only.
}  // namespace helios::data
