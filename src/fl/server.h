// Federated server: holds the global model, evaluates it, and aggregates
// client updates — including partial (submodel) updates, per-neuron.
#pragma once

#include <span>
#include <vector>

#include "agg/accumulator.h"
#include "data/dataset.h"
#include "fl/client.h"
#include "nn/model.h"

namespace helios::obs {
class TelemetrySink;
}

namespace helios::fl {

class HierarchySession;

/// Evaluation batch: the reference model evaluates this many test samples
/// at a time; Fleet::evaluate cuts it into one slice per pool thread.
inline constexpr int kEvalBatch = 128;

/// Updates are weighted by their local sample counts (FedAvg).
struct AggOptions {
  /// Helios Eq. 10: additionally weight device n by its trained-neuron
  /// fraction r_n, so more complete submodels contribute more. The weight
  /// applies to the whole update, common parameters included: applying
  /// different mixing ratios to a layer and to the layer consuming its
  /// features proved unstable under strong Non-IID skew.
  bool hetero_volume_weights = false;
  /// Damping of the Eq. 10 weight: alpha_n = (1 - d) + d * r_n. d = 1 is
  /// the literal paper formula (alpha proportional to r_n); we default to
  /// d = 0.25 because the undamped weight starves the stragglers' data
  /// under strong Non-IID label skew and destabilizes training (measured:
  /// accuracy collapse to chance on 2-shard splits), while mild damping
  /// keeps the "more complete -> more contribution" ordering and the
  /// IID-side variance reduction.
  double alpha_damping = 0.25;
  /// Participant-aware merging: a neuron's parameters are averaged only
  /// over the devices that trained it this cycle (part of Sec. VI-B's
  /// aggregation optimization). When false, the server performs the naive
  /// merge the paper's "S.T. Only" ablation uses: plain weighted averaging
  /// of the full parameter vectors, where a straggler's *untrained* stale
  /// parameters dilute the trained updates of the other devices — the
  /// source of the accuracy fluctuation Fig. 6 shows.
  bool per_neuron_merge = true;
};

class Server {
 public:
  /// Takes ownership of a reference model whose initial parameters become
  /// the initial global model. The reference model also provides the neuron
  /// index used for per-neuron aggregation and evaluation.
  explicit Server(nn::Model reference);

  const std::vector<float>& global() const { return global_; }
  void set_global(std::vector<float> params);
  /// Global non-learnable state (BatchNorm running statistics), averaged
  /// across clients at aggregation like the parameters.
  const std::vector<float>& global_buffers() const { return buffers_; }
  void set_global_buffers(std::vector<float> buffers);
  std::size_t param_count() const { return global_.size(); }
  int neuron_total() { return model_.neuron_total(); }
  nn::Model& reference_model() { return model_; }

  /// Synchronous aggregation of one cycle's updates.
  ///
  /// Per flat parameter index f the new global value is the weighted mean of
  /// the updates allowed to write f: parameters of neuron j accept a client
  /// only if it trained j this cycle; parameters owned by no neuron (e.g.
  /// the classifier head) accept every client. Indices no client trained
  /// keep the previous global value.
  void aggregate(std::span<const ClientUpdate> updates, const AggOptions& opts);

  /// Asynchronous mixing (AFO): global <- (1-alpha) * global + alpha * local.
  void mix(const ClientUpdate& update, double alpha);

  /// Top-1 accuracy of the global model on `test`, `batch` samples at a
  /// time on the reference model.
  double evaluate_accuracy(const data::Dataset& test,
                           int batch = kEvalBatch);
  /// The same accuracy on `replicas` (models of the reference's
  /// architecture; more than one run on the pool). With R replicas in use
  /// (no more than the test set has slices of `slice` samples), replica r
  /// loads the global parameters and buffers and evaluates the r-th of R
  /// even contiguous shares of the test set, in batches of at most `slice`
  /// samples. The result does not depend on `slice` or the replica count:
  /// inference logits are bit-identical whatever the batch (BatchNorm uses
  /// its running statistics), and the correct counts are integers.
  double evaluate_accuracy(const data::Dataset& test,
                           std::span<nn::Model* const> replicas, int slice);

  /// Observability sink (set by Fleet::set_telemetry; may be null).
  /// aggregate() reports each update's trained fraction r_n and its
  /// normalized weight share alpha_n to it.
  void set_telemetry(obs::TelemetrySink* sink) { telemetry_ = sink; }

  /// Aggregator-tree session (set by Fleet::set_hierarchy; may be null).
  /// When attached and active, aggregate() computes its per-update weights
  /// as usual and routes the accumulation through the tree instead of the
  /// inline fold.
  void set_hierarchy(HierarchySession* session) { hierarchy_ = session; }

  /// The aggregation geometry shared with the agg layer (per-param neuron
  /// ownership and per-neuron flat slices of the reference model).
  const agg::ModelGeometry& geometry() const { return geometry_; }

 private:
  nn::Model model_;
  std::vector<float> global_;
  std::vector<float> buffers_;
  agg::ModelGeometry geometry_;
  obs::TelemetrySink* telemetry_ = nullptr;
  HierarchySession* hierarchy_ = nullptr;
};

}  // namespace helios::fl
