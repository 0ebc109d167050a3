// The synchronous round driver. Every synchronous strategy (Syn. FL,
// FedProx, the Random / Static-prune submodel baselines, top-k compressed
// Syn. FL and Helios) runs the same round; they differ only in what each
// device trains and how the updates are weighted. SyncRoundStrategy owns
// that round, once:
//
//   cycle span -> set_cycle -> plan() -> pre-round global/buffer snapshot
//   -> Fleet::parallel_train (train_cycle per client)
//   -> record_cycle per client, in plan order -> post_train (on the pool)
//   -> deliver_round -> clock advance -> Server::aggregate
//   -> after_aggregate() -> evaluate
//   -> RoundRecord (loss averaged over max(1, trained)) -> record_cycle_result
//
// A strategy is a policy over that loop: it supplies its cycle span name
// and AggOptions, and overrides only the hooks it needs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fl/strategy.h"
#include "fl/transport.h"

namespace helios::fl {

/// One roster entry of a planned round: what the client trains.
struct PlannedClient {
  Client* client = nullptr;
  std::vector<std::uint8_t> mask;  ///< submodel mask (empty = full model)
  double work_scale = 1.0;         ///< fraction of local mini-batches
};

/// Everything one round produced, in plan order; handed to the
/// aggregation hooks.
struct SyncRound {
  int cycle = 0;
  std::vector<PlannedClient> plan;
  /// The global parameters every client trained from.
  std::vector<float> global_before;
  std::vector<ClientUpdate> updates;
  NetDelivery net;
};

class SyncRoundStrategy : public Strategy {
 public:
  void run_range(Fleet& fleet, RunResult& result, int begin,
                 int end) final;

 protected:
  /// `cycle_span` names the per-cycle trace span; it must be a string
  /// literal. `agg` configures every round's Server::aggregate.
  explicit SyncRoundStrategy(const char* cycle_span, AggOptions agg = {})
      : cycle_span_(cycle_span), agg_(agg) {}

  /// Resets per-run state; called when a run starts at cycle 0.
  virtual void begin_run(Fleet& /*fleet*/) {}
  /// The round's roster with each client's work. Runs sequentially before
  /// the fan-out, so it may consume RNG state. Default: round_roster with
  /// the full model at full work.
  virtual std::vector<PlannedClient> plan(Fleet& fleet, int cycle);
  /// Post-processes one trained update before delivery (e.g. top-k).
  /// Runs concurrently across clients, so it must not mutate shared state.
  virtual void post_train(const Fleet& /*fleet*/, ClientUpdate& /*update*/,
                          std::span<const float> /*base*/) const {}
  /// Called after Server::aggregate, which received
  /// round.net.aggregate_span(round.updates).
  virtual void after_aggregate(Fleet& /*fleet*/, const SyncRound& /*round*/) {}

 private:
  const char* cycle_span_;
  AggOptions agg_;
};

}  // namespace helios::fl
