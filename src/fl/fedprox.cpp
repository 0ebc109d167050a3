#include "fl/fedprox.h"

#include <algorithm>
#include <stdexcept>

namespace helios::fl {

FedProx::FedProx(float mu, double min_work)
    : SyncRoundStrategy("fedprox.cycle"), mu_(mu), min_work_(min_work) {
  if (mu < 0.0F) throw std::invalid_argument("FedProx: negative mu");
  if (min_work <= 0.0 || min_work > 1.0) {
    throw std::invalid_argument("FedProx: min_work out of (0, 1]");
  }
}

std::vector<PlannedClient> FedProx::plan(Fleet& fleet, int cycle) {
  std::vector<PlannedClient> plan = SyncRoundStrategy::plan(fleet, cycle);
  for (PlannedClient& p : plan) {
    p.client->set_proximal_mu(mu_);
    if (p.client->is_straggler()) {
      p.work_scale = std::clamp(p.client->volume(), min_work_, 1.0);
    }
  }
  return plan;
}

}  // namespace helios::fl
