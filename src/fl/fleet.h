// A federation: server + clients + held-out test set + virtual clock.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "device/virtual_clock.h"
#include "fl/client.h"
#include "fl/server.h"
#include "util/thread_pool.h"

namespace helios::obs {
class TelemetrySink;
}

namespace helios::fl {

class NetworkSession;
class HierarchySession;
class Strategy;
struct RunResult;
class Checkpointable;

/// Per-round cohort selection policy (implemented by sim::CohortSampler).
/// Membership must be a pure function of (policy state, device id, round) —
/// per-device forked RNG streams, never a shared sequential draw — so a
/// joiner can never perturb an existing device's participation schedule.
class RosterSampler {
 public:
  virtual ~RosterSampler() = default;
  /// Pure membership test: does device `device_id` participate in `round`?
  virtual bool selected(int device_id, int round) const = 0;
  /// The round's cohort drawn from `active` (input order preserved). The
  /// default filters by selected(); implementations may add fallbacks for
  /// otherwise-empty cohorts.
  virtual std::vector<Client*> sample(std::span<Client* const> active,
                                      int round) const;
};

class Fleet {
 public:
  /// Builds the global model from `spec` with `seed`; all clients must be
  /// constructed from the same spec (checked by parameter count).
  Fleet(const models::ModelSpec& spec, data::Dataset test_set,
        std::uint64_t seed = 7);

  // Clients hold a pointer to the server's reference model (the shared
  // architecture twin for analytic queries while hibernated), so moving a
  // fleet must re-bind those pointers to the new server.
  Fleet(Fleet&& other) noexcept;
  Fleet& operator=(Fleet&& other) noexcept;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Adds a client owning `local_data`; returns it for further setup.
  Client& add_client(data::Dataset local_data, ClientConfig config,
                     device::ResourceProfile profile);

  /// Lazy-data variant: the client materializes its shard from
  /// `data_factory` on first training use and releases it again when
  /// hibernated, so an unsampled client holds no sample memory (see
  /// Client's lazy constructor).
  Client& add_client(Client::DataFactory data_factory,
                     std::size_t nominal_samples, ClientConfig config,
                     device::ResourceProfile profile);

  std::size_t size() const { return clients_.size(); }
  Client& client(std::size_t i) { return *clients_.at(i); }
  std::vector<std::unique_ptr<Client>>& clients() { return clients_; }
  /// Client by id in O(1) (nullptr if unknown). Ids are dense and stable:
  /// a client's id is its roster index; departed clients are deactivated,
  /// never erased.
  Client* find_client(int id);
  /// Clients currently in the roster (active; excludes dead devices).
  std::vector<Client*> active_clients();

  /// Per-round participation sampling (nullptr = everyone participates,
  /// the legacy full-participation rosters). The fleet does not own the
  /// sampler; it must outlive the runs that use it.
  void set_sampler(const RosterSampler* sampler) { sampler_ = sampler; }
  const RosterSampler* sampler() const { return sampler_; }
  /// The round's participants: all active clients without a sampler
  /// (bit-identical to the legacy strategies), else the sampler's cohort.
  /// With `hibernate_unsampled`, active clients outside the cohort release
  /// their model replicas so a mostly-idle population stays memory-bounded.
  /// Reports cohort size to telemetry (helios.sim.* metrics).
  std::vector<Client*> round_roster(int round,
                                    bool hibernate_unsampled = true);
  /// Sum of live replica footprints across the fleet — the peak-RSS proxy
  /// the scale benchmarks report.
  std::size_t live_replica_bytes() const;

  Server& server() { return server_; }
  const data::Dataset& test_set() const { return test_set_; }
  device::VirtualClock& clock() { return clock_; }
  const models::ModelSpec& spec() const { return spec_; }

  /// Clients flagged as stragglers (by identification or manual setup).
  std::vector<Client*> stragglers();
  /// Clients not flagged as stragglers.
  std::vector<Client*> capable();

  /// Top-1 accuracy of the global model on the test set, on one model
  /// replica per pool thread (the server's reference model is replica 0;
  /// the others are built blank from spec() on first use) in batches of at
  /// most kEvalBatch / threads samples. Identical at any thread count.
  double evaluate();

  /// Round-level fan-out: runs `fn(client, i)` for every client in `roster`
  /// concurrently on the global thread pool and returns the results indexed
  /// by roster position. Threads claim the next client as they free up
  /// (util::parallel_for_each), so a slow client delays only itself, not a
  /// static slice of the roster. Clients are independent during a round
  /// (each owns its model, optimizer, RNG, and loader; the global snapshot
  /// is read-only here), so each result is bit-identical to what the
  /// sequential loop would have produced — and because the caller
  /// aggregates the returned vector in roster order, the whole round is too.
  /// Any per-round state the callback needs (masks, work scales, RNG draws,
  /// error-feedback residuals) must be prepared before the fan-out so it
  /// does not depend on execution order. With one thread configured this
  /// degenerates to a plain in-order loop.
  template <typename Fn>
  static auto parallel_train(std::span<Client* const> roster, Fn&& fn) {
    std::vector<std::invoke_result_t<Fn&, Client&, std::size_t>> results(
        roster.size());
    util::parallel_for_each(roster.size(), [&](std::size_t i) {
      results[i] = fn(*roster[i], i);
    });
    return results;
  }

  /// One-line observability opt-in: threads `sink` through the server and
  /// every (current and future) client, and installs it globally so the
  /// HELIOS_TRACE_SPAN macros in the nn kernels and strategies see it.
  /// Pass nullptr to detach. The sink must outlive the fleet (or be
  /// detached first); the fleet does not own it.
  void set_telemetry(obs::TelemetrySink* sink);
  obs::TelemetrySink* telemetry() const { return telemetry_; }

  /// Attached network simulation (nullptr = legacy in-memory handoff).
  /// Set by NetworkSession's constructor; the fleet does not own it.
  void set_network(NetworkSession* session) { network_ = session; }
  NetworkSession* network() const { return network_; }

  /// Attached aggregator-tree session (nullptr = flat single-server
  /// aggregation). Set by HierarchySession's constructor; the fleet does
  /// not own it. Also threads the session into the server's aggregate path.
  void set_hierarchy(HierarchySession* session);
  HierarchySession* hierarchy() const { return hierarchy_; }

  // -- Checkpoint / resume ---------------------------------------------------
  // (Implemented in checkpoint.cpp; see fl/checkpoint.h for the contract.)

  /// Registers a component with cross-round state (e.g. sim::ChurnProcess)
  /// to ride inside checkpoints. Names and registration order must match
  /// between the saving and the resuming process. The fleet does not own
  /// the component; it must outlive the fleet's checkpoint calls.
  void register_checkpointable(std::string name, Checkpointable* component);
  const std::vector<std::pair<std::string, Checkpointable*>>&
  checkpointables() const {
    return checkpointables_;
  }

  /// Writes the full collaboration state (fleet + registered components +
  /// `strategy`'s state, when non-null, + the partial `result`) to `path`
  /// atomically.
  void save_checkpoint(const std::string& path, const Strategy* strategy,
                       const RunResult& result);
  /// Restores a checkpoint written by save_checkpoint into this (freshly
  /// rebuilt, identically configured) fleet and `strategy`; returns the
  /// partial RunResult. Throws fl::CheckpointError on corruption/mismatch.
  RunResult resume(const std::string& path, Strategy* strategy);

 private:
  models::ModelSpec spec_;
  Server server_;
  data::Dataset test_set_;
  std::vector<std::unique_ptr<Client>> clients_;
  device::VirtualClock clock_;
  obs::TelemetrySink* telemetry_ = nullptr;
  NetworkSession* network_ = nullptr;
  HierarchySession* hierarchy_ = nullptr;
  const RosterSampler* sampler_ = nullptr;
  std::vector<std::pair<std::string, Checkpointable*>> checkpointables_;
  /// Evaluation replicas beyond the server's reference model.
  std::vector<nn::Model> eval_replicas_;
};

}  // namespace helios::fl
