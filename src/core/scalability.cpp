#include "core/scalability.h"

#include <algorithm>
#include <stdexcept>

namespace helios::core {

ScalabilityManager::ScalabilityManager(bool use_profiling, double pace_factor,
                                       double min_volume)
    : use_profiling_(use_profiling),
      pace_factor_(pace_factor),
      min_volume_(min_volume) {
  if (pace_factor <= 1.0) {
    throw std::invalid_argument("ScalabilityManager: pace_factor <= 1");
  }
  if (min_volume <= 0.0 || min_volume > 1.0) {
    throw std::invalid_argument("ScalabilityManager: bad min_volume");
  }
}

AdmissionResult ScalabilityManager::admit(fl::Fleet& fleet, int client_id) {
  fl::Client* joining = fleet.find_client(client_id);
  if (!joining) throw std::invalid_argument("admit: unknown client");

  // Collaboration pace: the slowest *capable* existing device.
  double pace = 0.0;
  for (auto& c : fleet.clients()) {
    if (c->id() == client_id || c->is_straggler()) continue;
    pace = std::max(pace, use_profiling_
                              ? c->estimate_cycle_seconds({})
                              : c->testbench_seconds(5));
  }
  AdmissionResult result;
  result.client_id = client_id;
  result.pace_seconds = pace;
  result.estimated_cycle_seconds =
      use_profiling_ ? joining->estimate_cycle_seconds({})
                     : joining->testbench_seconds(5);
  if (pace <= 0.0) {
    // First device, or all existing devices straggle: joins as capable.
    return result;
  }

  if (result.estimated_cycle_seconds > pace_factor_ * pace) {
    result.straggler = true;
    joining->set_straggler(true);
    // Profiled target determination against the measured pace — only the
    // joining device's volume is (re)assigned.
    result.volume =
        TargetDeterminer::profile_volume(*joining, pace, min_volume_);
    joining->set_volume(result.volume);
  }
  return result;
}

}  // namespace helios::core
