#include "fl/client.h"

#include "obs/telemetry.h"
#include "tensor/ops.h"

#include <algorithm>
#include <stdexcept>

namespace helios::fl {

double ClientUpdate::trained_fraction(int neuron_total) const {
  if (neuron_total <= 0) return 1.0;
  if (trained_mask.empty()) return 1.0;
  int active = 0;
  for (auto b : trained_mask) active += (b != 0);
  return static_cast<double>(active) / neuron_total;
}

Client::Client(int id, const models::ModelSpec& spec, data::Dataset local_data,
               ClientConfig config, device::ResourceProfile profile)
    : id_(id),
      data_(std::move(local_data)),
      config_(config),
      profile_(std::move(profile)),
      spec_(spec),
      opt_(config.lr, config.momentum, 0.0F, config.grad_clip),
      loader_(std::make_unique<data::DataLoader>(
          data_, config.batch_size, util::Rng(config.seed).fork(0x10AD))) {
  if (!profile_.valid()) throw std::invalid_argument("Client: invalid profile");
  data_.validate();
}

Client::Client(int id, const models::ModelSpec& spec, DataFactory data_factory,
               std::size_t nominal_samples, ClientConfig config,
               device::ResourceProfile profile)
    : id_(id),
      data_factory_(std::move(data_factory)),
      nominal_samples_(nominal_samples),
      config_(config),
      profile_(std::move(profile)),
      spec_(spec),
      opt_(config.lr, config.momentum, 0.0F, config.grad_clip) {
  if (!profile_.valid()) throw std::invalid_argument("Client: invalid profile");
  if (!data_factory_) throw std::invalid_argument("Client: null data factory");
}

nn::Model& Client::ensure_model() {
  if (!model_) {
    // Blank: train_cycle loads the global parameters and buffers before the
    // replica's first read, so a drawn init would only be overwritten.
    model_ = std::make_unique<nn::Model>(spec_.blank());
    if (expected_params_ != 0 &&
        model_->param_count() != expected_params_) {
      throw std::logic_error("Client: client/server parameter count mismatch");
    }
  }
  return *model_;
}

nn::Model& Client::model() { return ensure_model(); }

nn::Model& Client::estimation_model() {
  if (model_) return *model_;
  if (estimation_model_) return *estimation_model_;
  return ensure_model();
}

data::DataLoader& Client::ensure_data() {
  if (loader_) return *loader_;
  if (data_factory_ && data_.size() == 0) {
    data_ = data_factory_();
    data_.validate();
  }
  // Same RNG stream as the eager constructor, so a lazy client's first epoch
  // order is bit-identical to an eager one's.
  loader_ = std::make_unique<data::DataLoader>(
      data_, config_.batch_size, util::Rng(config_.seed).fork(0x10AD));
  if (stash_.valid) {
    loader_->restore(stash_.rng, std::move(stash_.order), stash_.cursor);
    stash_ = LoaderState{};
  }
  return *loader_;
}

std::size_t Client::num_samples() const {
  if (loader_ || !data_factory_) return static_cast<std::size_t>(data_.size());
  // Data-hibernated: a stashed epoch order carries the exact shard size;
  // before first materialization only the nominal size is known.
  if (stash_.valid) return stash_.order.size();
  return nominal_samples_;
}

Client::LoaderState Client::loader_state() const {
  LoaderState s;
  if (loader_) {
    s.rng = loader_->rng_state();
    s.order = loader_->order();
    s.cursor = loader_->cursor();
    s.valid = true;
  } else if (stash_.valid) {
    s = stash_;
  }
  return s;
}

void Client::io(util::CheckpointArchive& ar) {
  ar.io(straggler_);
  ar.io(active_);
  ar.io(volume_);
  ar.expect(volume_ > 0.0 && volume_ <= 1.0,
            "checkpoint client volume out of (0, 1]");
  ar.io(cycles_completed_);
  ar.io(config_.proximal_mu);
  ar.expect(config_.proximal_mu >= 0.0F,
            "checkpoint client proximal mu is negative");
  bool materialized = model_ != nullptr;
  ar.io(materialized);
  // A loader position travels once the loader exists (or a hibernation
  // stashed it); a fresh lazy client's loader is a pure function of its
  // seed.
  LoaderState loader = ar.loading() ? LoaderState{} : loader_state();
  ar.io(loader.valid);
  if (loader.valid) {
    ar.io(loader.rng);
    ar.io(loader.order);
    ar.io(loader.cursor);
    if (ar.loading()) {
      ar.expect(data::valid_epoch_order(loader.order, loader.cursor),
                "checkpoint loader order is not a permutation of its shard");
      if (loader_) {
        loader_->restore(loader.rng, std::move(loader.order), loader.cursor);
      } else {
        stash_ = std::move(loader);
      }
    }
  }
  opt_.io(ar, expected_params_);
  // Only the flag is restored: parameters are overwritten at cycle start.
  if (ar.loading()) {
    if (materialized) {
      ensure_model();
    } else {
      hibernate();
    }
  }
}

void Client::hibernate() {
  // Momentum velocity is cross-cycle optimizer state; releasing it would
  // silently change training. Memory-bounded fleets require momentum == 0.
  if (config_.momentum != 0.0F) return;
  if (model_) {
    model_.reset();
    opt_ = nn::Sgd(config_.lr, config_.momentum, 0.0F, config_.grad_clip);
  }
  if (data_factory_ && loader_) {
    // Stash the loader's cross-epoch state so re-materialization resumes the
    // identical shuffle stream, then drop the shard.
    stash_ = loader_state();
    loader_.reset();
    data_ = data::Dataset{};
  }
}

std::size_t Client::replica_bytes() const {
  if (!model_) return 0;
  // Params + grads (+ the optimizer's flat velocity when momentum is on),
  // plus buffers. Activations are transient and excluded.
  const std::size_t params = model_->param_count();
  const std::size_t per_param = config_.momentum != 0.0F ? 3 : 2;
  return (params * per_param + model_->buffer_count()) * sizeof(float);
}

ClientUpdate Client::run_cycle(std::span<const float> global_params,
                               std::span<const float> global_buffers,
                               std::span<const std::uint8_t> neuron_mask,
                               double work_scale) {
  ClientUpdate update =
      train_cycle(global_params, global_buffers, neuron_mask, work_scale);
  record_cycle(update);
  return update;
}

ClientUpdate Client::train_cycle(std::span<const float> global_params,
                                 std::span<const float> global_buffers,
                                 std::span<const std::uint8_t> neuron_mask,
                                 double work_scale) {
  if (work_scale <= 0.0 || work_scale > 1.0) {
    throw std::invalid_argument("run_cycle: work_scale out of (0, 1]");
  }
  HELIOS_TRACE_SPAN("client.run_cycle", {{"device", id_}});
  if (telemetry_) telemetry_->set_device(id_);
  nn::Model& model = ensure_model();
  data::DataLoader& loader = ensure_data();
  model.load_params(global_params);
  model.load_buffers(global_buffers);
  if (neuron_mask.empty()) {
    model.clear_neuron_mask();
  } else {
    model.set_neuron_mask(neuron_mask);
  }

  double loss_sum = 0.0;
  int batches = 0;
  int samples_processed = 0;
  {
    HELIOS_TRACE_SPAN("client.train",
                      {{"device", id_}, {"epochs", config_.local_epochs}});
    for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
      loader.reset();
      const int per_epoch = std::max(
          1, static_cast<int>(loader.batches_per_epoch() * work_scale));
      for (int b = 0; b < per_epoch; ++b) {
        data::Batch batch = loader.next();
        const nn::StepResult step = local_step(batch, global_params);
        loss_sum += step.loss;
        ++batches;
        samples_processed += batch.size();
      }
    }
  }

  // Cost-model the cycle while the mask is still installed, then clean up.
  const device::WorkloadEstimate workload = device::estimate_workload(
      model, samples_processed / std::max(1, config_.local_epochs),
      config_.local_epochs);

  ClientUpdate update;
  update.client_id = id_;
  update.params = model.params_flat();
  update.buffers = model.buffers_flat();
  update.trained_mask.assign(neuron_mask.begin(), neuron_mask.end());
  update.sample_count = num_samples();
  update.train_seconds = device::training_cycle_seconds(profile_, workload);
  update.upload_seconds = device::upload_seconds(profile_, workload);
  update.upload_mb = workload.upload_mb;
  update.mean_loss = batches > 0 ? loss_sum / batches : 0.0;

  model.clear_neuron_mask();
  ++cycles_completed_;
  return update;
}

void Client::record_cycle(const ClientUpdate& update) {
  if (!telemetry_) return;
  const int total = estimation_model().neuron_total();
  int trained = total;
  if (!update.trained_mask.empty()) {
    trained = 0;
    for (auto b : update.trained_mask) trained += (b != 0);
  }
  telemetry_->record_client_cycle(
      id_, {.profile = profile_.name, .straggler = straggler_,
            .volume = volume_, .trained_neurons = trained,
            .neuron_total = total, .train_seconds = update.train_seconds,
            .upload_seconds = update.upload_seconds,
            .upload_mb = update.upload_mb, .mean_loss = update.mean_loss});
  telemetry_->set_device(-1);
}

nn::StepResult Client::local_step(const data::Batch& batch,
                                  std::span<const float> global_params) {
  nn::Model& model = *model_;  // materialized by train_cycle
  if (config_.proximal_mu <= 0.0F) {
    return nn::train_step(model, opt_, batch.images, batch.labels);
  }
  // FedProx: gradient of f_n(w) + mu/2 * ||w - w_global||^2.
  model.zero_grad();
  tensor::Tensor logits = model.forward(batch.images, /*training=*/true);
  tensor::Tensor dlogits;
  nn::StepResult result;
  result.loss =
      tensor::softmax_cross_entropy(logits, batch.labels, dlogits);
  result.correct = tensor::count_correct(logits, batch.labels);
  model.backward(dlogits);
  const float mu = config_.proximal_mu;
  for (const nn::ParamRef& ref : model.param_refs()) {
    float* g = ref.grad->data();
    const float* w = ref.param->data();
    const float* anchor = global_params.data() + ref.flat_offset;
    for (std::size_t i = 0; i < ref.param->numel(); ++i) {
      g[i] += mu * (w[i] - anchor[i]);
    }
  }
  opt_.step(model);
  return result;
}

double Client::estimate_cycle_seconds(
    std::span<const std::uint8_t> neuron_mask) {
  // Analytic only: uses the shared architecture twin when hibernated so
  // planning over a large population never materializes replicas.
  nn::Model& model = estimation_model();
  if (neuron_mask.empty()) {
    model.clear_neuron_mask();
  } else {
    model.set_neuron_mask(neuron_mask);
  }
  const device::ArchitectureCost arch = device::architecture_cost(model);
  model.clear_neuron_mask();
  return cycle_seconds(arch);
}

double Client::cycle_seconds(const device::ArchitectureCost& arch) const {
  return device::total_cycle_seconds(
      profile_, device::scale_workload(arch, static_cast<int>(num_samples()),
                                       config_.local_epochs));
}

double Client::testbench_seconds(int iterations) {
  if (iterations <= 0) throw std::invalid_argument("testbench: iterations <= 0");
  nn::Model& model = estimation_model();
  model.clear_neuron_mask();
  const device::WorkloadEstimate workload = device::estimate_workload(
      model, iterations * config_.batch_size, /*local_epochs=*/1);
  return device::training_cycle_seconds(profile_, workload);
}

void Client::set_volume(double v) {
  if (!(v > 0.0 && v <= 1.0)) {
    throw std::invalid_argument("Client: volume must be in (0, 1]");
  }
  volume_ = v;
}

void Client::set_proximal_mu(float mu) {
  if (!(mu >= 0.0F)) {
    throw std::invalid_argument("Client: negative proximal mu");
  }
  config_.proximal_mu = mu;
}

}  // namespace helios::fl
