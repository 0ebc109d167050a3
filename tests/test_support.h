// Shared helpers for the Helios test suite.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <type_traits>
#include <vector>

#include "data/synthetic.h"
#include "nn/layer.h"
#include "nn/model.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace helios::testing {

/// Scalar loss L = sum_i c_i * y_i over the flattened layer output, with a
/// fixed random projection c. dL/dy = c, which exercises every output path.
struct ProjectionLoss {
  tensor::Tensor c;

  explicit ProjectionLoss(const tensor::Tensor& y, util::Rng& rng)
      : c(tensor::Tensor::randn(y.shape(), rng)) {}

  double value(const tensor::Tensor& y) const {
    double s = 0.0;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      s += static_cast<double>(y.flat()[i]) * c.flat()[i];
    }
    return s;
  }

  tensor::Tensor grad() const { return c; }
};

/// Bitwise equality of two contiguous ranges of the same element type.
/// Empty ranges compare equal without reaching memcmp, whose pointers must
/// be non-null even for a zero length — and an empty vector's data() may be
/// null.
template <typename A, typename B>
bool bitwise_equal(const A& a, const B& b) {
  const std::span sa(a);
  const std::span sb(b);
  static_assert(std::is_same_v<typename decltype(sa)::value_type,
                               typename decltype(sb)::value_type>);
  return sa.size() == sb.size() &&
         (sa.empty() ||
          std::memcmp(sa.data(), sb.data(), sa.size_bytes()) == 0);
}

/// 64-bit FNV-1a of a byte range; the tests pin encoded frames with it.
inline std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Central-difference derivative of `f` with respect to `*w`.
inline double numerical_derivative(float* w, const std::function<double()>& f,
                                   float eps = 1e-3F) {
  const float saved = *w;
  *w = saved + eps;
  const double up = f();
  *w = saved - eps;
  const double down = f();
  *w = saved;
  return (up - down) / (2.0 * static_cast<double>(eps));
}

/// Relative-or-absolute closeness for gradient checks. float32 forward
/// passes leave ~1e-3-scale noise in central differences of deep models, so
/// tiny gradients are compared absolutely.
inline bool grad_close(double analytic, double numeric, double tol = 5e-2,
                       double abs_tol = 1e-3) {
  if (std::fabs(analytic - numeric) < abs_tol) return true;
  const double scale =
      std::max({std::fabs(analytic), std::fabs(numeric), 1e-2});
  return std::fabs(analytic - numeric) / scale < tol;
}

/// Gradient-checks a single layer: analytic parameter gradients and input
/// gradients against central differences, on `checks` randomly chosen
/// entries per tensor. Returns the number of mismatches.
inline int gradcheck_layer(nn::Layer& layer, tensor::Tensor x,
                           util::Rng& rng, int checks = 24,
                           double tol = 5e-2) {
  // Fixed projection loss built from one forward pass.
  tensor::Tensor y0 = layer.forward(x, /*training=*/true);
  ProjectionLoss loss(y0, rng);

  auto forward_loss = [&]() {
    return loss.value(layer.forward(x, /*training=*/true));
  };

  // Analytic gradients.
  layer.zero_grad();
  layer.forward(x, /*training=*/true);
  tensor::Tensor dx = layer.backward(loss.grad());

  int mismatches = 0;
  // Parameter gradients.
  auto params = layer.params();
  auto grads = layer.grads();
  for (std::size_t t = 0; t < params.size(); ++t) {
    for (int k = 0; k < checks; ++k) {
      const std::size_t idx = static_cast<std::size_t>(
          rng.uniform_int(params[t]->numel()));
      const double analytic = grads[t]->flat()[idx];
      const double numeric =
          numerical_derivative(&params[t]->flat()[idx], forward_loss);
      if (!grad_close(analytic, numeric, tol)) ++mismatches;
    }
  }
  // Input gradients.
  for (int k = 0; k < checks; ++k) {
    const std::size_t idx =
        static_cast<std::size_t>(rng.uniform_int(x.numel()));
    const double analytic = dx.flat()[idx];
    const double numeric =
        numerical_derivative(&x.flat()[idx], forward_loss);
    if (!grad_close(analytic, numeric, tol)) ++mismatches;
  }
  return mismatches;
}

/// Tiny synthetic dataset helper.
inline data::Dataset tiny_dataset(int samples, int classes = 4,
                                  int channels = 1, int hw = 8,
                                  std::uint64_t seed = 5) {
  data::SyntheticSpec spec;
  spec.samples = samples;
  spec.channels = channels;
  spec.height = hw;
  spec.width = hw;
  spec.classes = classes;
  spec.noise = 0.3F;
  util::Rng rng(seed);
  return data::make_synthetic(spec, rng);
}

}  // namespace helios::testing

#include "data/partition.h"
#include "device/resource.h"
#include "fl/fleet.h"

namespace helios::testing {

struct FleetOptions {
  int clients = 4;
  int stragglers = 2;           // flagged + given `volume`
  double volume = 0.35;
  int samples_per_client = 48;
  int classes = 4;
  int hw = 8;                   // image side (1 channel)
  float lr = 0.08F;
  float momentum = 0.0F;
  int batch = 8;
  float noise = 0.6F;
  std::uint64_t seed = 11;
  bool non_iid = false;
};

/// Small MLP federation for strategy tests: the last `stragglers` clients
/// get slow profiles, straggler flags and the given volume.
inline fl::Fleet make_fleet(const FleetOptions& o = {}) {
  data::SyntheticSpec spec;
  spec.samples = o.samples_per_client * o.clients;
  spec.channels = 1;
  spec.height = spec.width = o.hw;
  spec.classes = o.classes;
  spec.noise = o.noise;
  util::Rng rng(o.seed);
  data::Dataset train = data::make_synthetic(spec, rng);
  spec.samples = 160;
  data::Dataset test = data::make_synthetic(spec, rng);

  fl::Fleet fleet(models::mlp_spec({1, o.hw, o.hw, o.classes}, 24),
                  std::move(test), o.seed);
  const data::Partition parts =
      o.non_iid ? data::partition_shards(train.labels,
                                         static_cast<std::size_t>(o.clients),
                                         2, rng)
                : data::partition_iid(static_cast<std::size_t>(train.size()),
                                      static_cast<std::size_t>(o.clients),
                                      rng);
  for (int i = 0; i < o.clients; ++i) {
    fl::ClientConfig cfg;
    cfg.seed = o.seed + static_cast<std::uint64_t>(i);
    cfg.lr = o.lr;
    cfg.momentum = o.momentum;
    cfg.batch_size = o.batch;
    const bool straggler = i >= o.clients - o.stragglers;
    fl::Client& c = fleet.add_client(
        data::subset(train, parts[static_cast<std::size_t>(i)]), cfg,
        device::sim_scaled(straggler ? device::deeplens_cpu()
                                     : device::edge_server()));
    if (straggler) {
      c.set_straggler(true);
      c.set_volume(o.volume);
    }
  }
  return fleet;
}

}  // namespace helios::testing

#include "core/straggler_id.h"
#include "core/target.h"
#include "sim/population.h"
#include "sim/sampler.h"

namespace helios::testing {

/// Lazy mobile_longtail(64) with the benchmark's set-up recipe: time-based
/// identification of the slowest quarter, profiled targets, and `sampler`
/// attached (it must outlive the fleet's runs). Test binaries that call it
/// link helios_sim.
inline fl::Fleet make_sampled_longtail(const sim::CohortSampler& sampler) {
  sim::PopulationConfig cfg = sim::mobile_longtail(64);
  cfg.lazy_data = true;
  fl::Fleet fleet = sim::build_fleet(sim::PopulationGenerator(cfg));
  const core::StragglerReport report =
      core::StragglerIdentifier::time_based(fleet, 16);
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);
  fleet.set_sampler(&sampler);
  return fleet;
}

}  // namespace helios::testing
