// Orchestration strategy interface. A strategy drives a Fleet for a number
// of aggregation cycles (measured at the capable devices, matching the
// x-axis of the paper's figures) and returns the per-cycle metric trace.
//
// Strategies are resumable: run() is a thin wrapper over run_range(), which
// executes cycles [begin, end) against a partially filled RunResult. All
// cross-cycle state lives in strategy members (initialized when begin == 0),
// so a run can stop at any round boundary, be checkpointed through
// Checkpointable::io, and continue — bit-identically — in a new process.
#pragma once

#include "fl/checkpoint.h"
#include "fl/fleet.h"
#include "fl/metrics.h"

namespace helios::fl {

class Strategy : public Checkpointable {
 public:
  virtual ~Strategy() = default;
  virtual std::string name() const = 0;

  /// Runs `cycles` aggregation cycles on `fleet` (which should be freshly
  /// constructed — strategies mutate the server's global model and advance
  /// the fleet clock).
  RunResult run(Fleet& fleet, int cycles) {
    RunResult result;
    result.method = name();
    run_range(fleet, result, 0, cycles);
    return result;
  }

  /// Executes cycles [begin, end), appending records to `result.rounds`.
  /// begin == 0 (re)initializes all per-run member state; begin > 0 expects
  /// that state to be present — carried over from an earlier run_range call
  /// in this process, or restored from a checkpoint. `begin` must equal the
  /// number of cycles already completed (for recording strategies:
  /// result.rounds.size()).
  virtual void run_range(Fleet& fleet, RunResult& result, int begin,
                         int end) = 0;

  /// Checkpointable: strategies with no cross-cycle state beyond the fleet
  /// inherit this no-op; stateful ones (Helios, async engines) override.
  void io(Fleet& /*fleet*/, CheckpointArchive& /*ar*/) override {}

  /// Rounds the strategy's own state counts as completed, or -1 when it
  /// keeps no count. A restore refuses a strategy section whose count
  /// disagrees with the checkpoint's rounds, since run_range would resume
  /// from the wrong round.
  virtual int completed_rounds() const { return -1; }
};

}  // namespace helios::fl
