// Per-device simulated network channel.
//
// A channel turns "device n sends B bytes at virtual time t" into a
// deterministic outcome: delivered at t + latency + jitter + B / bandwidth,
// lost with probability loss_prob (the sender learns at the same time an
// ack would have arrived), blocked while a scripted outage window covers t,
// or dead once the device's scripted death time has passed. All randomness
// comes from the channel's own seeded Rng, so a run is reproducible
// bit-for-bit and independent of how other devices' transfers interleave.
//
// Fault scripting covers the three churn events of the paper's Sec. VI
// dynamic-collaboration scenario: transient outages (the device reconnects
// when the window ends), permanent death (every later attempt fails and the
// round protocol drops the device from the roster), and mid-collaboration
// joins (a fresh channel is registered when the new device first uploads).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/checkpoint_archive.h"
#include "util/rng.h"

namespace helios::net {

struct ChannelConfig {
  /// Wire bandwidth, MB/s. 0 = use the device's ResourceProfile B_n.
  double bandwidth_mbps = 0.0;
  /// Fixed per-attempt propagation delay, virtual seconds.
  double latency_s = 0.0;
  /// Uniform extra delay in [0, jitter_s) drawn per attempt.
  double jitter_s = 0.0;
  /// Probability an attempt's frame is lost in transit.
  double loss_prob = 0.0;

  /// Why the config cannot drive a channel (latency or jitter negative or
  /// not finite, loss_prob outside [0, 1)), or nullptr when it can.
  const char* error() const;
  void io(util::CheckpointArchive& ar);
};

class SimulatedChannel {
 public:
  /// `fallback_bandwidth_mbps` is used when the config leaves bandwidth 0
  /// (the device profile's B_n). The channel owns its Rng.
  SimulatedChannel(ChannelConfig config, double fallback_bandwidth_mbps,
                   util::Rng rng);
  /// A channel to restore through io().
  SimulatedChannel() = default;

  // -- Fault scripting ------------------------------------------------------

  /// Transient outage: attempts starting in [start_s, end_s) are blocked and
  /// resume when the window ends. The window must be finite.
  void add_outage(double start_s, double end_s);
  /// Permanent death at `at_s`: attempts at or after it fail terminally, and
  /// a frame in flight across `at_s` is cut off mid-transfer.
  void set_death(double at_s);

  bool dead_at(double t) const { return death_s_ >= 0.0 && t >= death_s_; }
  /// End of the outage window covering `t`, or a negative value if none.
  double outage_end(double t) const;

  // -- Transfers ------------------------------------------------------------

  struct Attempt {
    enum class Outcome {
      kDelivered,  // frame arrived at finish_s
      kLost,       // frame dropped; sender learns at finish_s (ack timeout)
      kBlocked,    // outage window; sender can retry at finish_s
      kDead,       // device is gone; finish_s = when the sender finds out
    };
    Outcome outcome = Outcome::kDelivered;
    double finish_s = 0.0;
    /// Bytes that actually transited the wire (lost frames count; blocked
    /// and dead-before-start attempts do not).
    std::size_t bytes = 0;
  };

  /// One send attempt of `bytes` starting at `start_s`. Draws from the
  /// channel Rng only when jitter or loss are configured, so an ideal
  /// channel consumes no randomness.
  Attempt try_send(std::size_t bytes, double start_s);

  /// Deterministic transfer duration without jitter: latency + B/bandwidth.
  double transfer_seconds(std::size_t bytes) const;

  double bandwidth_mbps() const { return bandwidth_mbps_; }
  const ChannelConfig& config() const { return config_; }
  void set_config(ChannelConfig config);

  /// The jitter and loss draws' stream (the aggregator tree checkpoints its
  /// links' positions).
  util::Rng& rng() { return rng_; }

  /// Checkpoint section: the resolved bandwidth, the config, the RNG
  /// position, the scripted death time and the outage windows — the whole
  /// channel, so a resumed run replays the identical fault and jitter
  /// sequence. A restore runs the constructor's and add_outage's checks.
  void io(util::CheckpointArchive& ar);

 private:
  ChannelConfig config_;
  double bandwidth_mbps_ = 0.0;
  double death_s_ = -1.0;
  std::vector<std::pair<double, double>> outages_;  // [start, end)
  util::Rng rng_;
};

}  // namespace helios::net
