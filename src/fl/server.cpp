#include "fl/server.h"

#include <algorithm>
#include <stdexcept>

#include "fl/hierarchy.h"
#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace helios::fl {

Server::Server(nn::Model reference) : model_(std::move(reference)) {
  global_ = model_.params_flat();
  buffers_ = model_.buffers_flat();
  geometry_ = agg::make_geometry(model_);
}

void Server::set_global(std::vector<float> params) {
  if (params.size() != global_.size()) {
    throw std::invalid_argument("Server::set_global: size mismatch");
  }
  global_ = std::move(params);
}

void Server::set_global_buffers(std::vector<float> buffers) {
  if (buffers.size() != buffers_.size()) {
    throw std::invalid_argument("Server::set_global_buffers: size mismatch");
  }
  buffers_ = std::move(buffers);
}

void Server::aggregate(std::span<const ClientUpdate> updates,
                       const AggOptions& opts) {
  if (updates.empty()) return;
  HELIOS_TRACE_SPAN("server.aggregate", {{"updates", updates.size()}});
  const std::size_t p = global_.size();
  const int m = neuron_total();

  // Each update carries one weight, its sample count (FedAvg), times
  // alpha_n under hetero_volume_weights (Eq. 10: one scalar per device,
  // applied to the whole update, the classifier head included). The
  // per-index normalization below divides by the sum of participating
  // weights, so only relative alphas matter.
  if (opts.alpha_damping < 0.0 || opts.alpha_damping > 1.0) {
    throw std::invalid_argument("Server::aggregate: alpha_damping out of [0,1]");
  }
  std::vector<agg::FoldWeights> weights(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const ClientUpdate& u = updates[i];
    if (u.params.size() != p) {
      throw std::invalid_argument("Server::aggregate: update size mismatch");
    }
    if (!u.trained_mask.empty() &&
        static_cast<int>(u.trained_mask.size()) != m) {
      throw std::invalid_argument("Server::aggregate: bad trained mask size");
    }
    double w = static_cast<double>(u.sample_count);
    if (opts.hetero_volume_weights) {
      const double d = opts.alpha_damping;
      w *= (1.0 - d) + d * u.trained_fraction(m);
    }
    weights[i] = {w, w};
  }

  // Report the exact weights this aggregation uses: r_n as uploaded, alpha
  // as each update's share of the weight mass (shares sum to 1 over the
  // cycle's participants).
  if (telemetry_) {
    double weight_sum = 0.0;
    for (const agg::FoldWeights& w : weights) weight_sum += w.neuron;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      telemetry_->record_aggregation_weight(
          updates[i].client_id,
          {.r_n = updates[i].trained_fraction(m),
           .alpha = weight_sum > 0.0 ? weights[i].neuron / weight_sum : 0.0});
    }
  }

  // With an active aggregator tree attached, the accumulation happens at
  // the tree's edge nodes and collapses through weight-carrying merge
  // frames; a single-edge tree is bit-identical to the inline fold below.
  if (hierarchy_ != nullptr && hierarchy_->active()) {
    hierarchy_->aggregate(updates, weights, opts.per_neuron_merge, global_,
                          buffers_);
    return;
  }

  // Flat path: one streaming accumulator folds every update in input order
  // — the same per-index sums and final float cast the pre-streaming
  // nested loops computed. Buffers (BatchNorm statistics) are plain
  // weighted averages under the common weight; they are not neuron-indexed,
  // so every participating client contributes everywhere.
  agg::StreamingAccumulator acc(&geometry_);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const ClientUpdate& u = updates[i];
    acc.fold({u.client_id, u.params, u.buffers, u.trained_mask}, weights[i],
             opts.per_neuron_merge);
  }
  acc.finalize(global_, buffers_);
}

void Server::mix(const ClientUpdate& update, double alpha) {
  if (update.params.size() != global_.size()) {
    throw std::invalid_argument("Server::mix: size mismatch");
  }
  if (alpha < 0.0 || alpha > 1.0) {
    throw std::invalid_argument("Server::mix: alpha out of [0, 1]");
  }
  const float a = static_cast<float>(alpha);
  for (std::size_t f = 0; f < global_.size(); ++f) {
    global_[f] = (1.0F - a) * global_[f] + a * update.params[f];
  }
  if (!buffers_.empty()) {
    if (update.buffers.size() != buffers_.size()) {
      throw std::invalid_argument("Server::mix: buffer size mismatch");
    }
    for (std::size_t f = 0; f < buffers_.size(); ++f) {
      buffers_[f] = (1.0F - a) * buffers_[f] + a * update.buffers[f];
    }
  }
}

double Server::evaluate_accuracy(const data::Dataset& test, int batch) {
  nn::Model* reference = &model_;
  return evaluate_accuracy(test, std::span(&reference, 1), batch);
}

double Server::evaluate_accuracy(const data::Dataset& test,
                                 std::span<nn::Model* const> replicas,
                                 int slice) {
  if (slice <= 0) throw std::invalid_argument("evaluate_accuracy: batch <= 0");
  if (replicas.empty()) {
    throw std::invalid_argument("evaluate_accuracy: no replicas");
  }
  if (test.size() == 0) return 0.0;
  HELIOS_TRACE_SPAN("server.evaluate", {{"samples", test.size()}});
  const int n = test.size();
  const std::size_t sample = static_cast<std::size_t>(test.channels()) *
                             test.height() * test.width();
  const int used =
      std::min(static_cast<int>(replicas.size()), (n + slice - 1) / slice);
  std::vector<int> correct(static_cast<std::size_t>(used), 0);
  util::parallel_for(0, used, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (auto r = static_cast<int>(lo); r < static_cast<int>(hi); ++r) {
      nn::Model& model = *replicas[static_cast<std::size_t>(r)];
      model.clear_neuron_mask();
      model.load_params(global_);
      model.load_buffers(buffers_);
      const int end = n * (r + 1) / used;
      for (int start = n * r / used; start < end; start += slice) {
        const int take = std::min(slice, end - start);
        tensor::Tensor x({take, test.channels(), test.height(), test.width()});
        std::copy_n(
            test.images.data() + static_cast<std::size_t>(start) * sample,
            static_cast<std::size_t>(take) * sample, x.data());
        std::span<const int> labels(test.labels.data() + start,
                                    static_cast<std::size_t>(take));
        correct[static_cast<std::size_t>(r)] +=
            nn::evaluate_batch(model, x, labels);
      }
    }
  });
  int total = 0;
  for (int c : correct) total += c;
  return static_cast<double>(total) / n;
}

}  // namespace helios::fl
