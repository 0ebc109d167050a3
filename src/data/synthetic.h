// Procedural stand-ins for MNIST / CIFAR-10 / CIFAR-100.
//
// The paper's datasets cannot be downloaded in this environment, so we
// synthesize image classification tasks with the property that matters for
// the Helios experiments: each class has localized, learnable structure
// (a smooth spatial prototype), so a CNN genuinely has to learn per-class
// features and a Non-IID partition genuinely concentrates unique
// information on some clients. Samples are prototype + smooth per-sample
// deformation + white noise + brightness jitter.
#pragma once

#include <span>

#include "data/dataset.h"
#include "util/rng.h"

namespace helios::data {

struct SyntheticSpec {
  int samples = 1000;
  int channels = 1;
  int height = 28;
  int width = 28;
  int classes = 10;
  /// White-noise standard deviation added per pixel (task difficulty knob).
  float noise = 0.45F;
  /// Resolution of the low-frequency random field that defines each class
  /// prototype (smaller = smoother, easier class structure).
  int prototype_grid = 4;
  /// Per-sample smooth deformation strength (intra-class variability).
  float deform = 0.35F;
  /// Seed of the class prototypes — the "task identity". Two generations
  /// with the same spec share prototypes (e.g. train and test splits, or
  /// per-client shards of one federated task), regardless of the sample rng.
  std::uint64_t prototype_seed = 42;
};

/// Generates `spec.samples` labeled images with a balanced label marginal
/// (labels drawn uniformly). Same seed -> identical dataset.
Dataset make_synthetic(const SyntheticSpec& spec, util::Rng& rng);

/// Label-skewed synthesis: of the `spec.samples` candidates that
/// make_synthetic(spec, rng) would draw, the first `keep` whose label is in
/// `labels`, in stream order (fewer when the pool holds fewer matches).
/// When no candidate matches, the pool head stands in: make_synthetic of
/// min(spec.samples, keep) samples from the same starting stream. Only the
/// kept candidates are synthesized (a rejected one's draws are skipped with
/// Rng::skip_normals) and synthesis stops at the last kept sample, so the
/// bytes equal filtering the whole pool at a fraction of the cost. Requires
/// keep > 0.
Dataset make_synthetic_filtered(const SyntheticSpec& spec, util::Rng rng,
                                std::span<const int> labels, int keep);

/// Convenience presets mirroring the paper's three tasks.
SyntheticSpec mnist_like_spec(int samples);
SyntheticSpec cifar10_like_spec(int samples);
/// CIFAR-100 stand-in; spatially reduced to 16x16 to fit the CPU budget
/// (documented substitution — see DESIGN.md).
SyntheticSpec cifar100_like_spec(int samples);

}  // namespace helios::data
