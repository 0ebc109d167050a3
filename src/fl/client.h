// Federated client: a simulated edge device owning a local dataset, a model
// replica, and a resource profile that drives its virtual training time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "data/loader.h"
#include "device/cost_model.h"
#include "device/resource.h"
#include "models/zoo.h"
#include "nn/sgd.h"
#include "util/checkpoint_archive.h"

namespace helios::obs {
class TelemetrySink;
}

namespace helios::fl {

struct ClientConfig {
  int batch_size = 32;
  int local_epochs = 1;
  float lr = 0.05F;
  float momentum = 0.0F;
  /// Global gradient-norm clip (0 disables); stabilizes skewed local
  /// objectives under Non-IID splits.
  float grad_clip = 5.0F;
  /// FedProx proximal coefficient mu (0 = plain local SGD): adds
  /// mu * (w - w_global) to every gradient, anchoring local training to the
  /// global model (Li et al., 2020).
  float proximal_mu = 0.0F;
  std::uint64_t seed = 1;
};

/// What a client sends to the server after one local training cycle.
struct ClientUpdate {
  int client_id = -1;
  /// Full flat parameter vector after local training (frozen neurons are
  /// bit-identical to the global parameters the client received).
  std::vector<float> params;
  /// Non-learnable state after training (BatchNorm running statistics).
  std::vector<float> buffers;
  /// Per-neuron trained flags (empty = full model trained).
  std::vector<std::uint8_t> trained_mask;
  std::size_t sample_count = 0;
  double train_seconds = 0.0;   // virtual time, cost-model driven
  double upload_seconds = 0.0;  // virtual time
  double upload_mb = 0.0;       // communication volume of this update
  double mean_loss = 0.0;

  /// Fraction of neurons trained (r_n in the paper's Eq. 10).
  double trained_fraction(int neuron_total) const;
};

class Client {
 public:
  /// The client does NOT build its model replica here — replicas are
  /// materialized lazily (`spec.blank()`) on first use, so a
  /// population-scale fleet of mostly-unsampled clients holds no live model
  /// memory. A replica is built blank, without the random init, because
  /// every cycle loads the global parameters and buffers before the first
  /// read; materialization is therefore the same whenever (and on whatever
  /// thread) it happens.
  Client(int id, const models::ModelSpec& spec, data::Dataset local_data,
         ClientConfig config, device::ResourceProfile profile);

  /// Deterministic local-dataset builder for lazy clients: called (possibly
  /// repeatedly, after hibernations) to materialize the shard, so it must be
  /// a pure function — same dataset bytes every call.
  using DataFactory = std::function<data::Dataset()>;

  /// Lazy-data variant: the local dataset materializes on first use (like
  /// the model replica) and hibernate() releases it again, so a
  /// population-scale fleet of mostly-unsampled clients holds no sample
  /// memory either. `nominal_samples` is the shard size used for analytic
  /// planning while no data is live (the factory's actual size takes over
  /// once known).
  Client(int id, const models::ModelSpec& spec, DataFactory data_factory,
         std::size_t nominal_samples, ClientConfig config,
         device::ResourceProfile profile);

  /// One local training cycle: load the global parameters and buffers,
  /// install the submodel mask (empty = full model), run `local_epochs`
  /// epochs of SGD, and return the update together with its virtual-time
  /// costs. `work_scale` in (0, 1] processes only that fraction of each
  /// epoch's mini-batches — FedProx-style variable local work for weak
  /// devices (time scales accordingly).
  ClientUpdate run_cycle(std::span<const float> global_params,
                         std::span<const float> global_buffers,
                         std::span<const std::uint8_t> neuron_mask,
                         double work_scale = 1.0);
  /// run_cycle's two halves. train_cycle is everything but telemetry, so
  /// a caller may train on a pool worker and report later, in its own
  /// order; record_cycle reports the finished cycle (time split, trained
  /// neurons, Gantt slab at the sink's current virtual time) to the
  /// attached sink.
  ClientUpdate train_cycle(std::span<const float> global_params,
                           std::span<const float> global_buffers,
                           std::span<const std::uint8_t> neuron_mask,
                           double work_scale = 1.0);
  void record_cycle(const ClientUpdate& update);

  /// Cost-model estimate of a cycle under `neuron_mask` without training.
  double estimate_cycle_seconds(std::span<const std::uint8_t> neuron_mask);
  /// The same estimate from a precomputed (shareable) architecture cost.
  double cycle_seconds(const device::ArchitectureCost& arch) const;

  /// Virtual cost of the lightweight identification test bench
  /// (`iterations` mini-batches of full-model training).
  double testbench_seconds(int iterations);

  int id() const { return id_; }
  const device::ResourceProfile& profile() const { return profile_; }
  /// The live local dataset. Empty while a lazy client is data-hibernated;
  /// callers that only need the shard size should use num_samples().
  const data::Dataset& dataset() const { return data_; }
  /// Shard size for planning: the live dataset's size when materialized (or
  /// once the exact size is known from a stashed epoch order), else the
  /// nominal size the lazy factory was registered with.
  std::size_t num_samples() const;
  /// The live model replica; materializes it if the client is hibernated.
  /// Until a cycle loads the global model, its weights are zero.
  nn::Model& model();
  const ClientConfig& config() const { return config_; }

  /// True while the client holds a live model replica (optimizer included).
  bool materialized() const { return model_ != nullptr; }
  /// Releases the model replica and optimizer scratch so an unsampled
  /// client holds no per-parameter memory. The next run_cycle (or model())
  /// rebuilds it from the spec — parameters are overwritten by the global
  /// snapshot at cycle start, so training semantics are unchanged. Kept as
  /// a no-op when the optimizer carries momentum state across cycles
  /// (releasing would zero the velocity mid-run).
  void hibernate();
  /// Approximate live replica footprint in bytes (params + grads +
  /// optimizer scratch); 0 while hibernated. A cheap peak-RSS proxy for
  /// the scale benchmarks.
  std::size_t replica_bytes() const;

  /// Shared architecture twin used for cost estimates while hibernated
  /// (typically the server's reference model — same spec, so the analytic
  /// workload is identical). Set by Fleet::add_client; estimates fall back
  /// to materializing the replica when unset. The twin is mutated (mask
  /// install/clear) during estimation, so estimates through it must stay on
  /// the sequential planning path — never inside parallel_train.
  void set_estimation_model(nn::Model* m) { estimation_model_ = m; }
  /// Read-mostly architecture handle for cost/shape queries (layer ranges,
  /// neuron totals, memory profiling): the live replica when materialized,
  /// else the shared twin, else materializes the replica.
  nn::Model& estimation_model();
  /// Expected flat parameter count (the server's); checked at
  /// materialization instead of construction. 0 = unchecked.
  void set_expected_params(std::size_t n) { expected_params_ = n; }

  /// Straggler bookkeeping (set by identification / target determination).
  bool is_straggler() const { return straggler_; }
  void set_straggler(bool s) { straggler_ = s; }
  /// Roster membership. A client whose simulated device dies permanently is
  /// deactivated (not destroyed — ids and telemetry stay stable); the
  /// strategies skip inactive clients when building rosters.
  bool active() const { return active_; }
  void set_active(bool a) { active_ = a; }
  /// Expected model volume (keep ratio P); 1.0 = full model.
  double volume() const { return volume_; }
  void set_volume(double v);

  /// FedProx proximal coefficient (runtime-adjustable; see ClientConfig).
  void set_proximal_mu(float mu);

  /// Number of completed local training cycles.
  int cycles_completed() const { return cycles_completed_; }
  /// Checkpoint section: the roster flags, volume, cycle counter and
  /// proximal mu, the data loader's position (shuffle RNG, epoch order,
  /// cursor) and the optimizer's momentum velocity. Model replica
  /// parameters are NOT checkpointed — they are overwritten by the global
  /// snapshot at every cycle start, so only the materialized flag matters.
  /// A data-hibernated lazy client saves and restores its stashed loader
  /// position without materializing its shard; the shard's size is checked
  /// against that position when it is rebuilt.
  void io(util::CheckpointArchive& ar);

  /// Observability sink (set by Fleet::set_telemetry; may be null). The
  /// client reports each completed cycle's time split and trained-neuron
  /// count to it.
  void set_telemetry(obs::TelemetrySink* sink) { telemetry_ = sink; }

 private:
  nn::StepResult local_step(const data::Batch& batch,
                            std::span<const float> global_params);
  nn::Model& ensure_model();
  /// Materializes the local dataset (lazy clients) and/or the loader, and
  /// re-applies any stashed loader state. Returns the live loader.
  data::DataLoader& ensure_data();

  /// A loader position held by value, so a lazy, data-hibernated client
  /// carries it without its shard.
  struct LoaderState {
    util::RngState rng{};
    std::vector<std::size_t> order;
    std::size_t cursor = 0;
    /// False when the client has never run (fresh lazy client): the loader
    /// will be built deterministically from the seed on first use, so there
    /// is nothing to carry.
    bool valid = false;
  };
  /// The live loader's position, else the stashed one.
  LoaderState loader_state() const;

  int id_;
  data::Dataset data_;
  DataFactory data_factory_;  // non-empty => lazy-data client
  std::size_t nominal_samples_ = 0;
  ClientConfig config_;
  device::ResourceProfile profile_;
  models::ModelSpec spec_;
  std::unique_ptr<nn::Model> model_;
  nn::Sgd opt_;
  std::unique_ptr<data::DataLoader> loader_;
  /// Loader state carried across data hibernations (and checkpoint restores
  /// into a hibernated client) so re-materialization is bit-identical.
  LoaderState stash_;
  nn::Model* estimation_model_ = nullptr;
  std::size_t expected_params_ = 0;
  bool straggler_ = false;
  bool active_ = true;
  double volume_ = 1.0;
  int cycles_completed_ = 0;
  obs::TelemetrySink* telemetry_ = nullptr;
};

}  // namespace helios::fl
