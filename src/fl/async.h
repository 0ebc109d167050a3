// Baseline 2: asynchronous FL (Asyn. FL).
//
// Default mode (straggler_period == 0): fully asynchronous, as in the
// paper's baseline — whenever any device (capable or straggler) finishes a
// local cycle, its model is immediately mixed into the global one with a
// fixed weight and *no staleness control*:
//     global <- (1 - beta) * global + beta * local.
// A straggler's update was computed from a many-cycles-old snapshot, so each
// merge drags the global model back toward stale parameters — the
// information-degradation / stale-update failure mode of Sec. II-B. This is
// the shared AsyncEngine with a zero staleness exponent (AFO is the same
// engine with a polynomial staleness discount).
//
// Period mode (straggler_period == k > 0): capable devices aggregate among
// themselves every cycle; each straggler's update is merged every k cycles
// from the snapshot it started on — the "aggregation cycle = 2 / 3 epochs"
// settings of Fig. 2. It is a synchronous round whose stragglers deliver
// k cycles late from stale snapshots, so it keeps its own loop here.
//
// All state (the engine's, or the straggler background map) lives in
// members so a run can be checkpointed at any round boundary and resumed
// bit-identically through io().
#pragma once

#include <map>
#include <vector>

#include "fl/async_engine.h"
#include "fl/strategy.h"

namespace helios::fl {

class AsyncFL final : public Strategy {
 public:
  explicit AsyncFL(int straggler_period = 0, double mix_beta = 0.5);

  std::string name() const override;
  void run_range(Fleet& fleet, RunResult& result, int begin,
                 int end) override;

  /// State for the active mode: the event engine's (fully async) or the
  /// straggler background map (period mode).
  void io(Fleet& fleet, CheckpointArchive& ar) override;
  int completed_rounds() const override {
    return straggler_period_ == 0 ? engine_.recorded() : -1;
  }

 private:
  /// Period mode: the snapshot a straggler started from and when. Ordered
  /// map — checkpoint bytes must not depend on hash iteration order.
  struct PeriodState {
    std::vector<float> base;
    std::vector<float> base_buffers;
    bool busy = false;
    int started_cycle = 0;
  };

  void run_period(Fleet& fleet, RunResult& result, int begin, int end);

  int straggler_period_;
  AsyncEngine engine_;                         // straggler_period_ == 0
  std::map<int, PeriodState> period_state_;  // straggler_period_ > 0
};

}  // namespace helios::fl
