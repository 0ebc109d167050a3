// Analytic training-cost model (paper Sec. IV-B, resource-based profiling):
//     Te = W / C_cpu + M / V_mc + M / B_n
// where W is the training compute workload, M the memory traffic, and the
// denominators come from the device's ResourceProfile. The same model drives
// (a) straggler identification, (b) optimization-target determination, and
// (c) the event-driven virtual clock of every simulated experiment.
#pragma once

#include "device/resource.h"
#include "nn/model.h"

namespace helios::device {

/// Per-cycle workload of local training, in device-independent units.
struct WorkloadEstimate {
  /// W — total training compute for the cycle, GFLOP.
  double train_gflops = 0.0;
  /// M — memory traffic for the cycle (parameters + activations), MB.
  double mem_traffic_mb = 0.0;
  /// Parameter upload volume at aggregation (only trained neurons), MB.
  double upload_mb = 0.0;
};

/// What `model` costs per sample and uploads per cycle under its *current*
/// mask: independent of device, data and epochs, so one evaluation serves
/// every client of the same architecture and mask shape.
struct ArchitectureCost {
  double train_flops_per_sample = 0.0;
  double activation_numel_per_sample = 0.0;
  std::size_t param_count = 0;
  std::size_t uploaded_param_count = 0;  // params of the trained neurons
};
ArchitectureCost architecture_cost(nn::Model& model);

/// Scales an architecture cost to `samples_per_epoch * local_epochs` steps.
WorkloadEstimate scale_workload(const ArchitectureCost& arch,
                                int samples_per_epoch, int local_epochs);

/// Estimates one local training cycle of `model` under its *current* mask:
/// scale_workload(architecture_cost(model), ...).
WorkloadEstimate estimate_workload(nn::Model& model, int samples_per_epoch,
                                   int local_epochs);

/// Te for the training part (W/C + M/V), seconds of virtual time.
double training_cycle_seconds(const ResourceProfile& p,
                              const WorkloadEstimate& w);

/// Upload time at aggregation (M_upload / B_n), seconds of virtual time.
double upload_seconds(const ResourceProfile& p, const WorkloadEstimate& w);

/// Full cycle: training + upload.
double total_cycle_seconds(const ResourceProfile& p,
                           const WorkloadEstimate& w);

/// Paper-scale AlexNet/CIFAR-10 cycle workload used by the Table I
/// reproduction (the lite models in this repo are width-scaled, so Table I's
/// absolute minutes are reproduced from the paper-scale figure instead).
WorkloadEstimate paper_alexnet_cycle_workload(double memory_usage_mb);

/// Estimated peak training memory (parameters + gradients + activations for
/// one batch), MB — compared against ResourceProfile::memory_mb when
/// determining optimization targets.
double peak_memory_mb(nn::Model& model, int batch_size);

}  // namespace helios::device
