// The asynchronous event engine shared by Asyn. FL and AFO.
//
// The paper's two asynchronous baselines are one event-driven algorithm:
// every device trains from the global snapshot it started on; when it
// finishes, its update is mixed into the global model with weight
//     alpha * (1 + staleness)^(-a),
// staleness = the mixes applied since the device started, and the device
// restarts from the fresh global model. AFO (FedAsync, Fig. 5) discounts
// stale updates polynomially (a > 0). Fully asynchronous Asyn. FL (Sec.
// II-B, Fig. 2) is the a = 0 case: a fixed weight beta with no staleness
// control — exact, because pow(x, -0.0) is 1.
//
// AsyncEngine owns that loop, once. Per completion event:
//
//   pop the earliest completion -> advance the clock -> take the upload its
//   wave trained (and encoded and decoded) on the in-flight base -> record
//   the cycle -> deliver_update (when a network is attached: the protocol
//   and telemetry only) -> mix -> record a round if the reference device
//   completed -> restart it
//
// A round is recorded each time the reference device (the first capable
// device, else client 0) completes, aligning the cycle axis with the
// synchronous strategies; if the reference dies, recording re-anchors on a
// surviving device. With a cohort sampler the recorded-round index plays
// the cohort round: an unselected device parks (hibernated) and is
// re-examined each time a round is recorded; the reference always runs.
//
// Joiners: every run_range call sizes the tables to the fleet and starts
// each device it has never scheduled — the whole fleet at begin == 0,
// devices added since the last call otherwise — on the live global model,
// through the same sampler gate as everyone else.
//
// Waves: a device trains on the snapshot it started from, and nothing
// touches it between its start and its pop, so its training can run before
// its pop. When a popped device has no trained update yet, the engine
// trains a wave through train_uploads (Fleet::parallel_train, threads
// claiming the next device as they free up): that device, the reference's
// pending completion, and every in-flight completion strictly earlier than
// the reference's. All of them pop before (or at) the reference's pop, the
// only place a round — and so run_range — can end; ties with the reference
// stay out, since heap order among equal times is not fixed. With a
// network attached, the task that trains a device also encodes its update
// against the device's own base and decodes it; the error-feedback
// residuals are created on the driving thread before the fan-out. Each
// device's residual advances once per completion either way, and every
// wave member pops before run_range returns, so a checkpoint never holds a
// residual advanced for an unpopped update. The protocol, deaths, mix,
// telemetry and restarts stay in event order on the driving thread, so the
// run is bit-identical at any thread count. Intra-op kernels run inline
// inside a wave of more than one device.
//
// Snapshots: a device holds its global snapshot only while it is in flight;
// parking it or finding it dead releases the snapshot, capacity included.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fl/checkpoint.h"
#include "fl/fleet.h"
#include "fl/metrics.h"
#include "fl/transport.h"

namespace helios::fl {

class AsyncEngine {
 public:
  /// `completion_span` names the per-completion trace span; it must be a
  /// string literal. The owning strategy validates alpha and the exponent.
  AsyncEngine(const char* completion_span, double alpha,
              double staleness_exponent)
      : completion_span_(completion_span),
        alpha_(alpha),
        staleness_exponent_(staleness_exponent) {}

  /// Strategy::run_range: begin == 0 resets the engine; otherwise begin
  /// must equal the number of rounds recorded so far.
  void run_range(Fleet& fleet, RunResult& result, int begin, int end);

  /// Checkpoint section: the event heap (its plain array, so a restored run
  /// pops in the identical order), in-flight base snapshots with their
  /// start versions (empty for a device not in flight), sampler parking and
  /// the open round's accumulators. Throws std::logic_error mid-wave, while
  /// a trained update waits for its pop; run_range never returns in that
  /// state. A restore accepts tables shorter than the fleet — devices that
  /// joined after the last run_range start at the next one — and throws
  /// CheckpointError when they are longer, when an event time is not
  /// finite, an event or the reference lies outside the tables, a device is
  /// scheduled twice (two events, or an event while parked), the events are
  /// out of heap order, an active reference has no pending event, or a
  /// scheduled device's base, start version or completion time is not one
  /// start_client could have left (a completion lies at most one cycle
  /// estimate after the restored clock).
  void io(Fleet& fleet, CheckpointArchive& ar);

  /// Rounds recorded so far.
  int recorded() const { return recorded_; }

 private:
  struct Event {
    double time = 0.0;
    int client_index = 0;
    bool operator>(const Event& other) const { return time > other.time; }
  };
  /// The global snapshot and model version a device started training from.
  /// Addressed by fleet index so the state survives serialization.
  struct InFlight {
    std::vector<float> base;
    std::vector<float> base_buffers;
    std::int64_t started_version = 0;
    /// Trained by the device's wave (with a session, also encoded and
    /// decoded there), taken at its pop; never serialized.
    std::optional<Upload> upload;
    /// Cycle estimate taken before the wave trained, for the Gantt
    /// backdating at pop (only while telemetry is attached).
    double cycle_seconds = 0.0;
  };

  /// Snapshots the live global model for device `i` and schedules its
  /// completion, or parks it when the sampler leaves it out of the round.
  /// A parked or dead device releases its snapshot.
  void start_client(Fleet& fleet, std::size_t i);
  void wake_parked(Fleet& fleet);
  /// Moves recording to the first capable device, else the first active
  /// one, and wakes the parked devices (the new reference may be among
  /// them). False when no device is active.
  bool reanchor(Fleet& fleet);
  /// Trains the wave that `popped` (just taken off the heap, untrained)
  /// opens; see the file comment.
  void train_wave(Fleet& fleet, std::size_t popped);

  const char* completion_span_;
  double alpha_;
  double staleness_exponent_;

  std::vector<Event> events_;  // min-heap on completion time
  std::vector<InFlight> inflight_;
  std::vector<std::uint8_t> parked_;
  std::int64_t version_ = 0;  ///< mixes applied so far
  int reference_id_ = -1;  ///< a client id, which is also its fleet index
  int recorded_ = 0;
  double loss_acc_ = 0.0;
  double upload_acc_ = 0.0;
  int loss_count_ = 0;
};

}  // namespace helios::fl
