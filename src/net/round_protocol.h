// Server-side round protocol over simulated channels: bounded
// retransmit-with-backoff for lost frames, per-round deadlines, and
// graceful degradation (a round aggregates whatever arrived in time; a
// device that dies is reported so the roster can drop it).
//
// The protocol is deliberately fl-agnostic: it moves opaque frames of known
// byte sizes for numbered devices. The fl::NetworkSession glue encodes
// ClientUpdates into frames, feeds them through run_round, and decodes the
// arrivals — keeping this layer free of any model or strategy dependency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "codec/codec.h"
#include "net/channel.h"

namespace helios::net {

enum class NetMode {
  /// Frames are encoded/decoded and counted, but delivery is perfect and
  /// timing stays on the analytic M/B_n path — RunResults are bit-identical
  /// to a run with no network attached.
  kIdeal,
  /// Delivery, timing, loss, faults and deadlines come from the channels;
  /// upload_seconds is driven by serialized frame bytes.
  kSimulated,
};

struct NetworkOptions {
  NetMode mode = NetMode::kIdeal;
  /// Channel defaults applied to every device (bandwidth 0 = the device
  /// profile's B_n). Override per device via RoundProtocol::configure_device.
  ChannelConfig channel;
  /// Retransmit attempts after the first send of a frame.
  int max_retries = 3;
  /// Extra wait before retry k (0-based): retry_backoff_s * 2^k.
  double retry_backoff_s = 0.02;
  /// Absolute per-round deadline, virtual seconds from round start
  /// (0 = none).
  double deadline_s = 0.0;
  /// When deadline_s is 0 and this is > 0: deadline = factor * the round's
  /// slowest analytic (train + upload) estimate. Values > 1 leave headroom
  /// for retries; frames settling later are excluded from aggregation.
  double deadline_factor = 0.0;
  /// Seeds the per-device channel Rngs (forked by device id).
  std::uint64_t seed = 0x5EEDU;
  /// Wire codec for upload payload values: kFp32 (default, lossless),
  /// kFp16 or kInt8PerNeuron. Every codec ships the same frame layout; see
  /// src/net/wire.h and src/codec.
  codec::CodecId payload_codec = codec::CodecId::kFp32;
  /// With a lossy payload_codec: carry each client's quantization
  /// residual across rounds and add it back into the next upload (error
  /// feedback). No effect under kFp32.
  bool error_feedback = true;
};

class RoundProtocol {
 public:
  explicit RoundProtocol(NetworkOptions options);

  const NetworkOptions& options() const { return options_; }

  // -- Roster ---------------------------------------------------------------

  /// Registers device `id` with a channel built from the options' default
  /// config (plus any configure_device override), falling back to
  /// `profile_bandwidth_mbps` for bandwidth. Idempotent.
  void add_device(int id, double profile_bandwidth_mbps);
  bool has_device(int id) const { return channels_.count(id) != 0; }
  SimulatedChannel& channel(int id);

  /// Per-device channel override; applies to the existing channel and to a
  /// future add_device registration. Throws std::invalid_argument for a
  /// config SimulatedChannel's constructor refuses, which a checkpoint
  /// restore would refuse too.
  void configure_device(int id, ChannelConfig config);

  /// Fault scripting shortcuts (device must be registered).
  void script_outage(int id, double start_s, double end_s);
  void script_death(int id, double at_s);

  /// Checkpoint section: the per-device config overrides, then every
  /// registered channel (devices that joined mid-run included) with its
  /// whole state. A restore replaces both; a fleet client left without a
  /// channel is registered afresh by the session's next delivery.
  void io(util::CheckpointArchive& ar);

  // -- Transfers ------------------------------------------------------------

  struct Send {
    int device_id = -1;
    std::size_t frame_bytes = 0;
    /// Absolute virtual time the device finishes training and starts
    /// uploading.
    double ready_at = 0.0;
  };

  struct Delivery {
    int device_id = -1;
    bool delivered = false;
    bool died = false;
    /// Delivered, but after the round deadline — the server does not count
    /// the frame.
    bool deadline_missed = false;
    int attempts = 0;
    /// Attempts that actually put the frame on the wire (lost ones count;
    /// outage-blocked and dead-before-start ones do not).
    int transmissions = 0;
    /// transmissions beyond the first — the retransmit count.
    int retransmits = 0;
    int lost_frames = 0;
    /// Bytes that transited the wire across all attempts.
    std::size_t bytes_on_wire = 0;
    /// Absolute time the transfer settled (delivery, final failure, death).
    double settle_s = 0.0;
    /// settle_s - ready_at: the device's actual communication time.
    double comm_seconds = 0.0;
  };

  /// One frame with retries. `deadline_abs_s` <= 0 disables the deadline
  /// check (the sender itself never gives up early — the deadline is a
  /// server-side accounting rule).
  Delivery send_with_retries(int device_id, std::size_t frame_bytes,
                             double ready_at, double deadline_abs_s);

  struct RoundOutcome {
    /// Aligned with the input sends.
    std::vector<Delivery> deliveries;
    /// Absolute virtual time the server closes the round: the last accepted
    /// arrival, or the deadline when any participant missed it, or the last
    /// settle time when there is no deadline (no deadlock: retries are
    /// bounded and outage windows are finite).
    double round_close_s = 0.0;
    std::size_t bytes_on_wire = 0;
    int frames_sent = 0;  // attempts that put bytes on the wire
    int lost_frames = 0;
    int retransmits = 0;
    int deadline_misses = 0;
    int deaths = 0;
    int delivered = 0;  // accepted by the server (in time)
  };

  /// Runs one synchronous round. `analytic_hint_s` is the slowest analytic
  /// (train + upload) estimate, used when options().deadline_factor scales
  /// the deadline.
  RoundOutcome run_round(std::span<const Send> sends, double round_start_s,
                         double analytic_hint_s);

 private:
  NetworkOptions options_;
  util::Rng seed_rng_;
  std::map<int, SimulatedChannel> channels_;
  std::map<int, ChannelConfig> overrides_;
};

}  // namespace helios::net
