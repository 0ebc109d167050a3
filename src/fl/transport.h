// NetworkSession — the glue between the fleet's federated round loop and
// the src/net simulation (wire format + channels + round protocol).
//
// Attach one to a fleet to make every strategy's uploads cross a simulated
// network:
//
//   net::NetworkOptions opts;
//   opts.mode = net::NetMode::kSimulated;
//   opts.channel.loss_prob = 0.05;
//   fl::NetworkSession session(fleet, opts);   // also registers channels
//   session.protocol().script_death(3, 120.0); // optional fault scripting
//   ... run any strategy ...
//
// Modes:
//   * kIdeal (default NetworkOptions) — every update is encoded to a frame,
//     integrity-checked, decoded and counted (bytes-on-wire telemetry), but
//     delivery is perfect and all virtual times stay on the analytic M/B_n
//     path: RunResults are bit-identical to a run with no session attached.
//   * kSimulated — upload_seconds comes from the serialized frame's actual
//     transfer (size / bandwidth + latency + jitter + retries), frames can
//     be lost or miss the round deadline (the round aggregates whatever
//     arrived — Server::aggregate renormalizes the alpha_n weights over the
//     actual arrivals), and a device whose channel dies is deactivated in
//     the fleet roster.
//
// Strategies call deliver_round / deliver_update through the fleet's
// attached session; with none attached they keep the exact legacy path.
//
// Threading: deliver_round encodes every update on the global pool, then
// decodes every accepted frame there (net.encode / net.decode spans, on
// whichever thread claims them). The asynchronous strategies do an
// upload's wire work inside their training fan-out (train_uploads: the
// pool task that trains a completion also encodes and decodes it), so
// deliver_update, at the completion's pop, runs only the protocol. The
// order-sensitive steps stay on the calling thread in roster or event
// order: creating error-feedback residuals (before any fan-out), the
// channel and tree-relay simulation, deaths, and all telemetry. Results and
// journals are therefore identical at any thread count.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "codec/error_feedback.h"
#include "fl/checkpoint.h"
#include "fl/fleet.h"
#include "net/round_protocol.h"
#include "net/wire.h"
#include "obs/journal.h"

namespace helios::fl {

/// One upload with its wire work done ahead of its delivery: the update as
/// the server decodes it, plus the frame's size and codec telemetry but not
/// its bytes. Without a session: the update as trained, no codec record.
struct Upload {
  ClientUpdate update;
  /// bytes_out is the frame's size; bytes_in (the same message as a dense
  /// fp32 frame) and residual_norm are filled only while a sink is attached.
  obs::CodecEvent codec;
};

/// What the server saw of one synchronous round.
struct NetDelivery {
  /// True when no simulation ran and the caller should aggregate its local
  /// updates directly (no session attached).
  bool pass_through = true;
  /// Server-side arrivals, decoded from frames (empty when pass_through).
  std::vector<ClientUpdate> arrived;
  /// Per *input* update: whether its frame was accepted in time.
  std::vector<std::uint8_t> delivered;
  /// Per input update: the device's actual upload time (analytic on the
  /// pass-through/ideal paths; wire-driven incl. retries when simulated).
  std::vector<double> comm_seconds;
  /// Round duration: max over participants of train + comm, deadline-capped
  /// when the protocol enforces one.
  double round_seconds = 0.0;
  /// Round communication volume for the RoundRecord: the analytic sum on
  /// the pass-through/ideal paths, real bytes-on-wire / 1e6 when simulated.
  double upload_mb = 0.0;
  std::size_t bytes_on_wire = 0;
  int retransmits = 0;
  int lost_frames = 0;
  int deadline_misses = 0;
  /// Clients deactivated this round because their device died mid-upload.
  std::vector<int> died;

  /// The updates the server aggregates: the arrivals, or `local` when the
  /// delivery passed through.
  std::span<const ClientUpdate> aggregate_span(
      std::span<const ClientUpdate> local) const {
    return pass_through ? local : std::span<const ClientUpdate>(arrived);
  }
};

/// Every upload crosses the wire as one frame under
/// NetworkOptions::payload_codec. With a lossy codec and error_feedback on,
/// each client's quantization residual is carried across rounds and added
/// back into its next upload before quantizing — the error-feedback scheme
/// that keeps the long-run aggregate unbiased. The residual bank is Checkpointable:
/// register the session (e.g. as "codec_ef") to keep crash/resume
/// bit-identical under quantization.
class NetworkSession : public Checkpointable {
 public:
  /// Builds the wire layout from the fleet's server reference model,
  /// registers a channel per existing client, and attaches itself via
  /// Fleet::set_network. The session must outlive the fleet's use of it.
  NetworkSession(Fleet& fleet, net::NetworkOptions options);
  ~NetworkSession();

  NetworkSession(const NetworkSession&) = delete;
  NetworkSession& operator=(const NetworkSession&) = delete;

  const net::NetworkOptions& options() const { return protocol_.options(); }
  net::RoundProtocol& protocol() { return protocol_; }
  const net::WireLayout& layout() const { return layout_; }
  bool simulated() const {
    return options().mode == net::NetMode::kSimulated;
  }

  /// Delivers one synchronous round of updates. `base_params` is the global
  /// snapshot the clients trained from (fills unshipped entries at decode).
  /// Registers channels for any clients added since the last call, and
  /// deactivates clients whose devices died. Under error feedback, throws
  /// std::logic_error if two updates carry the same client id.
  NetDelivery deliver_round(std::span<const ClientUpdate> updates,
                            std::span<const float> base_params);

  /// The error-feedback residual that sends from `client_id` against
  /// `base_params` compensate with, created on first use; nullptr unless
  /// error feedback applies. Call it on the driving thread, before a
  /// fan-out: the bank is an ordered map, unsafe to insert into
  /// concurrently.
  std::vector<float>* residual_for(int client_id,
                                   std::span<const float> base_params);

  /// The wire work of one upload outside a synchronous round: encodes
  /// `update` against `base_params` (adding `residual`, when non-null,
  /// before quantizing and replacing it with the new quantization error)
  /// and decodes the frame as the server will. Writes nothing but
  /// `*residual`, so uploads of distinct clients may be prepared
  /// concurrently.
  Upload prepare_upload(const ClientUpdate& update,
                        std::span<const float> base_params,
                        std::vector<float>* residual) const;

  /// Delivers one prepared upload outside a synchronous round (the
  /// asynchronous strategies' per-completion path): runs the protocol from
  /// `start_s`, deactivates a device that died, and records codec and
  /// transfer telemetry. When delivered, `upload.update` takes the wire's
  /// upload time and volume.
  struct SingleDelivery {
    bool delivered = true;
    bool died = false;
    double comm_seconds = 0.0;
    /// Absolute virtual time the frame settled.
    double settle_s = 0.0;
  };
  SingleDelivery deliver_update(Upload& upload, double start_s);

  /// The error-feedback residual bank (empty while payload_codec is kFp32
  /// or error_feedback is off).
  const codec::ErrorFeedback& feedback() const { return feedback_; }

  /// Checkpointable: the residual bank, so a resumed run's compensated
  /// uploads stay bit-identical to the uninterrupted run.
  void io(Fleet& /*fleet*/, CheckpointArchive& ar) override {
    feedback_.io(ar, layout_.param_count);
  }

 private:
  /// One update encoded for sending, with what its codec telemetry reports.
  struct SentFrame {
    std::vector<std::uint8_t> bytes;
    obs::CodecEvent codec;  // as in Upload
  };

  void track_clients();
  /// residual_for each update, in roster order. Throws std::logic_error
  /// when two updates share a residual, since both sends would write it.
  std::vector<std::vector<float>*> residuals_for(
      std::span<const ClientUpdate> updates,
      std::span<const float> base_params);
  /// The sending path, one for every codec: adds `residual` (when non-null)
  /// before quantizing and replaces it with the new quantization error.
  /// Writes nothing but `*residual`, so sends of distinct clients may run
  /// concurrently.
  SentFrame encode_for_send(const ClientUpdate& update,
                            std::span<const float> base_params,
                            std::vector<float>* residual) const;
  /// Codec telemetry of one send (quantized codecs only).
  void record_codec(int client_id, const obs::CodecEvent& event) const;
  ClientUpdate decode(std::span<const std::uint8_t> frame,
                      std::span<const float> base_params,
                      const ClientUpdate& local) const;
  /// Decodes frames[i] for every i with accepted[i] set, on the pool; the
  /// other entries stay empty.
  std::vector<ClientUpdate> decode_accepted(
      std::span<const SentFrame> frames,
      std::span<const std::uint8_t> accepted,
      std::span<const float> base_params,
      std::span<const ClientUpdate> updates) const;
  void mark_death(int client_id);
  void record_round(const NetDelivery& d, std::size_t frames_delivered);

  Fleet& fleet_;
  net::WireLayout layout_;
  net::RoundProtocol protocol_;
  codec::ErrorFeedback feedback_;
};

/// The asynchronous strategies' training fan-out (AFO's and Asyn. FL's
/// waves, Asyn. FL's due stragglers): through Fleet::parallel_train, trains
/// roster[k] from the snapshot `from(k)` (anything with `base` and
/// `base_buffers`) and, with a session attached, prepares its upload
/// against that snapshot in the same pool task, so deliver_update at the
/// completion is left the protocol and the telemetry. The residuals are
/// created first, on this thread. Roster clients must be distinct.
template <typename From>
std::vector<Upload> train_uploads(Fleet& fleet,
                                  std::span<Client* const> roster,
                                  From&& from) {
  NetworkSession* session = fleet.network();
  std::vector<std::vector<float>*> residuals(roster.size(), nullptr);
  if (session != nullptr) {
    for (std::size_t k = 0; k < roster.size(); ++k) {
      residuals[k] = session->residual_for(roster[k]->id(), from(k).base);
    }
  }
  return Fleet::parallel_train(roster, [&](Client& c, std::size_t k) {
    const auto& snapshot = from(k);
    ClientUpdate update =
        c.train_cycle(snapshot.base, snapshot.base_buffers, {});
    if (session == nullptr) return Upload{std::move(update), {}};
    return session->prepare_upload(update, snapshot.base, residuals[k]);
  });
}

/// Legacy-path round closure shared by the synchronous strategies: without
/// a session the round lasts as long as the slowest train + analytic upload
/// and every update arrives. Bit-identical to the pre-network loops.
NetDelivery deliver_round(Fleet& fleet,
                          std::span<const ClientUpdate> updates,
                          std::span<const float> base_params);

}  // namespace helios::fl
