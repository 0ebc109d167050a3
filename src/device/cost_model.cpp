#include "device/cost_model.h"

#include <algorithm>
#include <stdexcept>

namespace helios::device {
namespace {
constexpr double kBytesPerParam = 4.0;  // float32
constexpr double kMb = 1.0e6;
}  // namespace

ArchitectureCost architecture_cost(nn::Model& model) {
  // Upload only the parameters of neurons that actually trained. The frozen
  // flat mask (0/1 per parameter) is empty when no submodel is installed.
  const auto& frozen = model.frozen_flat_mask();
  const std::size_t params = model.param_count();
  return {model.train_flops_per_sample(),
          model.activation_numel_per_sample(), params,
          params - static_cast<std::size_t>(
                       std::count(frozen.begin(), frozen.end(), 1))};
}

WorkloadEstimate scale_workload(const ArchitectureCost& arch,
                                int samples_per_epoch, int local_epochs) {
  if (samples_per_epoch < 0 || local_epochs < 0) {
    throw std::invalid_argument("estimate_workload: negative counts");
  }
  const double steps =
      static_cast<double>(samples_per_epoch) * local_epochs;
  WorkloadEstimate w;
  w.train_gflops = arch.train_flops_per_sample * steps / 1.0e9;

  const double param_bytes =
      static_cast<double>(arch.param_count) * kBytesPerParam;
  const double act_bytes = arch.activation_numel_per_sample * kBytesPerParam;
  // Each sample streams its activations forward and backward; parameters are
  // re-read once per cycle for the optimizer update.
  w.mem_traffic_mb = (act_bytes * 2.0 * steps + param_bytes) / kMb;
  w.upload_mb =
      static_cast<double>(arch.uploaded_param_count) * kBytesPerParam / kMb;
  return w;
}

WorkloadEstimate estimate_workload(nn::Model& model, int samples_per_epoch,
                                   int local_epochs) {
  return scale_workload(architecture_cost(model), samples_per_epoch,
                        local_epochs);
}

double training_cycle_seconds(const ResourceProfile& p,
                              const WorkloadEstimate& w) {
  if (!p.valid()) throw std::invalid_argument("cost model: invalid profile");
  return w.train_gflops / p.compute_gflops +
         w.mem_traffic_mb / p.mem_bandwidth_mbps;
}

double upload_seconds(const ResourceProfile& p, const WorkloadEstimate& w) {
  if (!p.valid()) throw std::invalid_argument("cost model: invalid profile");
  return w.upload_mb / p.net_bandwidth_mbps;
}

double total_cycle_seconds(const ResourceProfile& p,
                           const WorkloadEstimate& w) {
  return training_cycle_seconds(p, w) + upload_seconds(p, w);
}

WorkloadEstimate paper_alexnet_cycle_workload(double memory_usage_mb) {
  // ~0.7 GFLOP/sample forward, x3 for training, 2000 local samples x 2
  // epochs => ~8400 GFLOP per local cycle. The memory usage column of
  // Table I is per-device, so it is a parameter here; the whole per-cycle
  // memory footprint transits the memory bus and (as a stale-parameter
  // sync) the network once per cycle in the paper's formulation.
  WorkloadEstimate w;
  w.train_gflops = 8400.0;
  w.mem_traffic_mb = memory_usage_mb;
  w.upload_mb = memory_usage_mb;
  return w;
}

double peak_memory_mb(nn::Model& model, int batch_size) {
  if (batch_size <= 0) throw std::invalid_argument("peak_memory_mb: batch <= 0");
  const double param_bytes =
      static_cast<double>(model.param_count()) * kBytesPerParam;
  const double act_bytes = model.activation_numel_per_sample() *
                           kBytesPerParam * batch_size;
  // params + grads + activations (+ activation grads in flight ~ 1x).
  return (2.0 * param_bytes + 2.0 * act_bytes) / kMb;
}

}  // namespace helios::device
