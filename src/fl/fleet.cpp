#include "fl/fleet.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "fl/hierarchy.h"
#include "obs/telemetry.h"
#include "tensor/backend/dispatch.h"

namespace helios::fl {

std::vector<Client*> RosterSampler::sample(std::span<Client* const> active,
                                           int round) const {
  std::vector<Client*> cohort;
  for (Client* c : active) {
    if (selected(c->id(), round)) cohort.push_back(c);
  }
  return cohort;
}

Fleet::Fleet(const models::ModelSpec& spec, data::Dataset test_set,
             std::uint64_t seed)
    : spec_(spec), server_(spec.build(seed)), test_set_(std::move(test_set)) {
  test_set_.validate();
}

Fleet::Fleet(Fleet&& other) noexcept
    : spec_(std::move(other.spec_)),
      server_(std::move(other.server_)),
      test_set_(std::move(other.test_set_)),
      clients_(std::move(other.clients_)),
      clock_(other.clock_),
      telemetry_(other.telemetry_),
      network_(other.network_),
      hierarchy_(other.hierarchy_),
      sampler_(other.sampler_),
      checkpointables_(std::move(other.checkpointables_)),
      eval_replicas_(std::move(other.eval_replicas_)) {
  for (auto& c : clients_) c->set_estimation_model(&server_.reference_model());
}

Fleet& Fleet::operator=(Fleet&& other) noexcept {
  if (this == &other) return *this;
  spec_ = std::move(other.spec_);
  server_ = std::move(other.server_);
  test_set_ = std::move(other.test_set_);
  clients_ = std::move(other.clients_);
  clock_ = other.clock_;
  telemetry_ = other.telemetry_;
  network_ = other.network_;
  hierarchy_ = other.hierarchy_;
  sampler_ = other.sampler_;
  checkpointables_ = std::move(other.checkpointables_);
  eval_replicas_ = std::move(other.eval_replicas_);
  for (auto& c : clients_) c->set_estimation_model(&server_.reference_model());
  return *this;
}

Client& Fleet::add_client(data::Dataset local_data, ClientConfig config,
                          device::ResourceProfile profile) {
  auto client = std::make_unique<Client>(static_cast<int>(clients_.size()),
                                         spec_, std::move(local_data), config,
                                         std::move(profile));
  // No eager model build here: the replica materializes on first use and the
  // parameter-count check runs then. Cost estimates for hibernated clients
  // go through the server's reference model (same spec, same arithmetic).
  client->set_expected_params(server_.param_count());
  client->set_estimation_model(&server_.reference_model());
  client->set_telemetry(telemetry_);
  clients_.push_back(std::move(client));
  return *clients_.back();
}

Client& Fleet::add_client(Client::DataFactory data_factory,
                          std::size_t nominal_samples, ClientConfig config,
                          device::ResourceProfile profile) {
  auto client = std::make_unique<Client>(static_cast<int>(clients_.size()),
                                         spec_, std::move(data_factory),
                                         nominal_samples, config,
                                         std::move(profile));
  client->set_expected_params(server_.param_count());
  client->set_estimation_model(&server_.reference_model());
  client->set_telemetry(telemetry_);
  clients_.push_back(std::move(client));
  return *clients_.back();
}

void Fleet::set_hierarchy(HierarchySession* session) {
  hierarchy_ = session;
  server_.set_hierarchy(session);
}

void Fleet::set_telemetry(obs::TelemetrySink* sink) {
  if (telemetry_ && telemetry_ != sink) telemetry_->uninstall();
  telemetry_ = sink;
  server_.set_telemetry(sink);
  for (auto& c : clients_) c->set_telemetry(sink);
  if (sink) {
    sink->install();
    sink->record_kernel_backend(tensor::backend::active_backend_name());
  }
}

Client* Fleet::find_client(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= clients_.size()) {
    return nullptr;
  }
  Client* c = clients_[static_cast<std::size_t>(id)].get();
  return c->id() == id ? c : nullptr;
}

std::vector<Client*> Fleet::active_clients() {
  std::vector<Client*> out;
  for (auto& c : clients_) {
    if (c->active()) out.push_back(c.get());
  }
  return out;
}

std::vector<Client*> Fleet::round_roster(int round, bool hibernate_unsampled) {
  HELIOS_TRACE_SPAN("fleet.round_roster");
  std::vector<Client*> active = active_clients();
  if (!sampler_) return active;
  std::vector<Client*> cohort = sampler_->sample(active, round);
  // Hash-set membership: the linear std::find scan was O(active * cohort),
  // which dominated round setup at population scale (100k active, 1k
  // cohort). The cohort need not be a subsequence of `active` (empty-cohort
  // fallbacks), so a set is the right structure.
  const std::unordered_set<const Client*> in_cohort(cohort.begin(),
                                                    cohort.end());
  for (Client* c : active) {
    if (in_cohort.find(c) == in_cohort.end()) {
      if (telemetry_) {
        telemetry_->record_device_skipped(round, c->id(), {"hollow"});
      }
      // Membership via the cohort itself (not selected()): a sampler's
      // empty-cohort fallback may include clients selected() rejects.
      if (hibernate_unsampled) c->hibernate();
    }
  }
  if (telemetry_) {
    for (const auto& c : clients_) {
      if (!c->active()) {
        telemetry_->record_device_skipped(round, c->id(), {"dead"});
      }
    }
    telemetry_->record_cohort(
        round, {clients_.size(), active.size(), cohort.size()});
  }
  return cohort;
}

double Fleet::evaluate() {
  const auto threads =
      static_cast<std::size_t>(util::global_thread_count());
  while (eval_replicas_.size() + 1 < threads) {
    // Blank: evaluate_accuracy loads the global model into each replica.
    eval_replicas_.push_back(spec_.blank());
  }
  std::vector<nn::Model*> replicas{&server_.reference_model()};
  for (std::size_t r = 1; r < threads; ++r) {
    replicas.push_back(&eval_replicas_[r - 1]);
  }
  return server_.evaluate_accuracy(
      test_set_, replicas,
      std::max(1, kEvalBatch / static_cast<int>(threads)));
}

std::size_t Fleet::live_replica_bytes() const {
  std::size_t total = 0;
  for (const auto& c : clients_) total += c->replica_bytes();
  return total;
}

std::vector<Client*> Fleet::stragglers() {
  std::vector<Client*> out;
  for (auto& c : clients_) {
    if (c->active() && c->is_straggler()) out.push_back(c.get());
  }
  return out;
}

std::vector<Client*> Fleet::capable() {
  std::vector<Client*> out;
  for (auto& c : clients_) {
    if (c->active() && !c->is_straggler()) out.push_back(c.get());
  }
  return out;
}

}  // namespace helios::fl
