#include "fl/transport.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "fl/hierarchy.h"
#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace helios::fl {

NetworkSession::NetworkSession(Fleet& fleet, net::NetworkOptions options)
    : fleet_(fleet),
      layout_(net::make_wire_layout(fleet.server().reference_model())),
      protocol_(options) {
  track_clients();
  fleet_.set_network(this);
}

NetworkSession::~NetworkSession() {
  if (fleet_.network() == this) fleet_.set_network(nullptr);
}

void NetworkSession::track_clients() {
  for (auto& c : fleet_.clients()) {
    if (!protocol_.has_device(c->id())) {
      protocol_.add_device(c->id(), c->profile().net_bandwidth_mbps);
    }
  }
}

namespace {

net::WireMessage wire_message(const ClientUpdate& update) {
  net::WireMessage msg;
  msg.client_id = update.client_id;
  msg.sample_count = update.sample_count;
  msg.mean_loss = update.mean_loss;
  msg.params = update.params;
  msg.buffers = update.buffers;
  msg.neuron_mask = update.trained_mask;
  return msg;
}

/// A protocol delivery as the journal's transfer event; `delivered` is
/// whether the server accepted the frame.
obs::TransferEvent transfer_event(const net::RoundProtocol::Delivery& del,
                                  bool delivered) {
  return {del.bytes_on_wire, del.transmissions, del.lost_frames, delivered,
          del.deadline_missed, del.died, del.comm_seconds};
}

}  // namespace

std::vector<float>* NetworkSession::residual_for(
    int client_id, std::span<const float> base_params) {
  if (options().payload_codec == codec::CodecId::kFp32 ||
      !options().error_feedback ||
      base_params.size() != layout_.param_count) {
    return nullptr;
  }
  return &feedback_.residual(client_id, layout_.param_count);
}

std::vector<std::vector<float>*> NetworkSession::residuals_for(
    std::span<const ClientUpdate> updates, std::span<const float> base_params) {
  std::vector<std::vector<float>*> residuals(updates.size(), nullptr);
  std::unordered_set<int> seen;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const int id = updates[i].client_id;
    residuals[i] = residual_for(id, base_params);
    if (residuals[i] != nullptr && !seen.insert(id).second) {
      throw std::logic_error(
          "NetworkSession: two updates from client " + std::to_string(id) +
          " share one error-feedback residual");
    }
  }
  return residuals;
}

NetworkSession::SentFrame NetworkSession::encode_for_send(
    const ClientUpdate& update, std::span<const float> base_params,
    std::vector<float>* residual) const {
  HELIOS_TRACE_SPAN("net.encode", {{"device", update.client_id}});
  net::WireMessage msg = wire_message(update);
  std::vector<float> compensated;
  if (residual != nullptr) {
    // Error feedback: add the residual the previous rounds' quantization
    // left behind before quantizing this upload. Only shipped entries read
    // it (unshipped entries never cross the wire and keep their residual).
    compensated.assign(update.params.begin(), update.params.end());
    for (std::size_t f = 0; f < compensated.size(); ++f) {
      compensated[f] += (*residual)[f];
    }
    msg.params = compensated;
  }

  SentFrame sent;
  net::CodecResult result;
  sent.bytes = net::encode_frame_auto(msg, base_params, layout_,
                                      options().payload_codec, &result);
  sent.codec.bytes_out = sent.bytes.size();
  if (residual != nullptr) {
    // residual' = compensated - what the receiver reconstructs.
    for (std::size_t f = 0; f < layout_.param_count; ++f) {
      if (!net::entry_shipped(layout_, msg.neuron_mask, f)) continue;
      (*residual)[f] = compensated[f] - result.dequantized[f];
    }
  }
  if (fleet_.telemetry() != nullptr) {
    sent.codec.bytes_in = net::dense_frame_bytes(layout_, msg.neuron_mask);
    if (residual != nullptr) {
      sent.codec.residual_norm = codec::ErrorFeedback::l2_norm(*residual);
    }
  }
  return sent;
}

Upload NetworkSession::prepare_upload(const ClientUpdate& update,
                                      std::span<const float> base_params,
                                      std::vector<float>* residual) const {
  const SentFrame sent = encode_for_send(update, base_params, residual);
  return {decode(sent.bytes, base_params, update), sent.codec};
}

void NetworkSession::record_codec(int client_id,
                                  const obs::CodecEvent& event) const {
  obs::TelemetrySink* sink = fleet_.telemetry();
  if (sink == nullptr || options().payload_codec == codec::CodecId::kFp32) {
    return;
  }
  sink->record_codec(client_id, event);
}

ClientUpdate NetworkSession::decode(std::span<const std::uint8_t> frame,
                                    std::span<const float> base_params,
                                    const ClientUpdate& local) const {
  HELIOS_TRACE_SPAN("net.decode", {{"device", local.client_id}});
  net::DecodedMessage msg = net::decode_frame(frame, layout_, base_params);
  ClientUpdate u;
  u.client_id = msg.client_id;
  u.params = std::move(msg.params);
  u.buffers = std::move(msg.buffers);
  u.trained_mask = std::move(msg.neuron_mask);
  u.sample_count = static_cast<std::size_t>(msg.sample_count);
  u.mean_loss = msg.mean_loss;
  // Virtual-time costs travel out of band (the channel, not the frame,
  // determines them); keep the sender's analytic values by default.
  u.train_seconds = local.train_seconds;
  u.upload_seconds = local.upload_seconds;
  u.upload_mb = local.upload_mb;
  return u;
}

void NetworkSession::mark_death(int client_id) {
  if (Client* c = fleet_.find_client(client_id)) c->set_active(false);
}

void NetworkSession::record_round(const NetDelivery& d,
                                  std::size_t frames_delivered) {
  obs::TelemetrySink* sink = fleet_.telemetry();
  if (sink == nullptr) return;
  sink->record_network_round(
      {.bytes_on_wire = d.bytes_on_wire,
       .participants = static_cast<int>(d.delivered.size()),
       .delivered = static_cast<int>(frames_delivered),
       .lost_frames = d.lost_frames, .retransmits = d.retransmits,
       .deadline_misses = d.deadline_misses,
       .deaths = static_cast<int>(d.died.size())});
}

std::vector<ClientUpdate> NetworkSession::decode_accepted(
    std::span<const SentFrame> frames, std::span<const std::uint8_t> accepted,
    std::span<const float> base_params,
    std::span<const ClientUpdate> updates) const {
  std::vector<ClientUpdate> decoded(updates.size());
  util::parallel_for_each(updates.size(), [&](std::size_t i) {
    if (accepted[i] != 0) {
      decoded[i] = decode(frames[i].bytes, base_params, updates[i]);
    }
  });
  return decoded;
}

NetDelivery NetworkSession::deliver_round(std::span<const ClientUpdate> updates,
                                          std::span<const float> base_params) {
  track_clients();
  obs::TelemetrySink* sink = fleet_.telemetry();

  NetDelivery d;
  d.pass_through = false;
  d.delivered.assign(updates.size(), 1);
  d.comm_seconds.resize(updates.size(), 0.0);

  // Legacy analytic round accounting — the kIdeal result, and the deadline
  // hint for the simulated path.
  double analytic_round = 0.0;
  double analytic_mb = 0.0;
  for (const ClientUpdate& u : updates) {
    analytic_round =
        std::max(analytic_round, u.train_seconds + u.upload_seconds);
    analytic_mb += u.upload_mb;
  }

  // Each send touches only its own update, frame and residual, so the
  // encodes run on the pool; the residuals are created and the codec
  // telemetry recorded on this thread, in roster order.
  const std::vector<std::vector<float>*> residuals =
      residuals_for(updates, base_params);
  std::vector<SentFrame> frames(updates.size());
  util::parallel_for_each(updates.size(), [&](std::size_t i) {
    frames[i] = encode_for_send(updates[i], base_params, residuals[i]);
  });
  for (std::size_t i = 0; i < updates.size(); ++i) {
    record_codec(updates[i].client_id, frames[i].codec);
  }

  if (!simulated()) {
    // Ideal channel: every frame round-trips through the wire format (an
    // integrity check — encode/decode is bit-exact) and is counted, but
    // timing and delivery stay on the analytic path.
    d.arrived = decode_accepted(frames, d.delivered, base_params, updates);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      d.comm_seconds[i] = updates[i].upload_seconds;
      d.bytes_on_wire += frames[i].bytes.size();
      if (sink != nullptr) {
        sink->record_device_transfer(
            updates[i].client_id, {.bytes_on_wire = frames[i].bytes.size(),
                                   .transmissions = 1,
                                   .comm_seconds = updates[i].upload_seconds});
      }
    }
    d.round_seconds = analytic_round;
    d.upload_mb = analytic_mb;
    record_round(d, updates.size());
    return d;
  }

  const double round_start = fleet_.clock().now();
  std::vector<net::RoundProtocol::Send> sends;
  sends.reserve(updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    sends.push_back({updates[i].client_id, frames[i].bytes.size(),
                     round_start + updates[i].train_seconds});
  }
  const net::RoundProtocol::RoundOutcome out =
      protocol_.run_round(sends, round_start, analytic_round);

  // With an aggregator tree attached, the accepted device frames now sit at
  // their edge nodes; simulate the merge-frame relay up the tree before
  // deciding what reaches the root. An edge (or its regional) missing a tier
  // deadline drops its whole device set from this round's aggregation — the
  // weight-carrying frames make that renormalize exactly like a late cohort.
  HierarchySession* hier = fleet_.hierarchy();
  const bool tree_relay = hier != nullptr && hier->active();
  agg::RelayOutcome relay;
  if (tree_relay) {
    const int edges = hier->topology().edge_nodes;
    std::vector<double> edge_ready(static_cast<std::size_t>(edges), -1.0);
    std::vector<std::size_t> edge_extra(static_cast<std::size_t>(edges), 0);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const net::RoundProtocol::Delivery& del = out.deliveries[i];
      if (!del.delivered || del.deadline_missed) continue;
      const auto e = static_cast<std::size_t>(
          hier->topology().edge_of(updates[i].client_id));
      edge_ready[e] = std::max(edge_ready[e], del.settle_s);
      if (!updates[i].trained_mask.empty()) {
        // Bookkeeping rider: one f64 U^ij shard per masked neuron plus the
        // device id, forwarded alongside the edge's merge frame.
        edge_extra[e] += 8 * updates[i].trained_mask.size() + 8;
      }
    }
    relay = hier->relay_round(edge_ready, edge_extra, round_start);
  }

  for (std::size_t i = 0; i < updates.size(); ++i) {
    const net::RoundProtocol::Delivery& del = out.deliveries[i];
    d.comm_seconds[i] = del.comm_seconds;
    bool accepted = del.delivered && !del.deadline_missed;
    if (accepted && tree_relay) {
      const auto e = static_cast<std::size_t>(
          hier->topology().edge_of(updates[i].client_id));
      accepted = relay.edge_on_time[e] != 0;
    }
    d.delivered[i] = accepted ? 1 : 0;
  }
  std::vector<ClientUpdate> decoded =
      decode_accepted(frames, d.delivered, base_params, updates);
  d.arrived.reserve(static_cast<std::size_t>(out.delivered));
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const net::RoundProtocol::Delivery& del = out.deliveries[i];
    if (del.died) {
      d.died.push_back(del.device_id);
      mark_death(del.device_id);
    }
    if (d.delivered[i] != 0) {
      ClientUpdate& u = decoded[i];
      u.upload_seconds = del.comm_seconds;
      u.upload_mb = static_cast<double>(del.bytes_on_wire) / 1e6;
      d.arrived.push_back(std::move(u));
    }
    if (sink != nullptr) {
      sink->record_device_transfer(del.device_id,
                                   transfer_event(del, d.delivered[i] != 0));
    }
  }
  double close_s = out.round_close_s;
  d.bytes_on_wire = out.bytes_on_wire;
  d.retransmits = out.retransmits;
  d.lost_frames = out.lost_frames;
  d.deadline_misses = out.deadline_misses;
  if (tree_relay && relay.any_sent) {
    // The round now closes when the root holds its last accepted merge frame
    // (or the governing tier deadline expires); the device-tier close still
    // applies for failed device uploads the protocol waited out.
    close_s = std::max(close_s, relay.close_s);
    d.bytes_on_wire += relay.bytes_on_wire;
    d.retransmits += relay.retransmits;
    d.lost_frames += relay.lost_frames;
    d.deadline_misses += relay.deadline_misses;
  }
  d.round_seconds = close_s - round_start;
  d.upload_mb = static_cast<double>(d.bytes_on_wire) / 1e6;
  record_round(d, d.arrived.size());
  return d;
}

NetworkSession::SingleDelivery NetworkSession::deliver_update(
    Upload& upload, double start_s) {
  track_clients();
  obs::TelemetrySink* sink = fleet_.telemetry();
  ClientUpdate& update = upload.update;
  record_codec(update.client_id, upload.codec);
  const auto frame_bytes = static_cast<std::size_t>(upload.codec.bytes_out);

  SingleDelivery s;
  if (!simulated()) {
    s.comm_seconds = update.upload_seconds;
    s.settle_s = start_s + update.upload_seconds;
    if (sink != nullptr) {
      sink->record_device_transfer(
          update.client_id, {.bytes_on_wire = frame_bytes,
                             .transmissions = 1,
                             .comm_seconds = update.upload_seconds});
    }
    return s;
  }

  const net::RoundProtocol::Delivery del =
      protocol_.send_with_retries(update.client_id, frame_bytes, start_s,
                                  /*deadline_abs_s=*/0.0);
  s.delivered = del.delivered;
  s.died = del.died;
  s.comm_seconds = del.comm_seconds;
  s.settle_s = del.settle_s;
  if (del.died) mark_death(del.device_id);
  if (del.delivered) {
    // Asynchronous updates relayed through an aggregator tree pay the
    // deterministic per-hop merge-frame transfer on top of the device
    // uplink (no tier batching: each completion travels alone).
    HierarchySession* hier = fleet_.hierarchy();
    if (hier != nullptr && hier->active()) {
      const std::size_t rider =
          update.trained_mask.empty() ? 0 : 8 * update.trained_mask.size() + 8;
      const double hop = hier->async_uplink_seconds(update.client_id, rider);
      s.comm_seconds += hop;
      s.settle_s += hop;
    }
    update.upload_seconds = s.comm_seconds;
    update.upload_mb = static_cast<double>(del.bytes_on_wire) / 1e6;
  }
  if (sink != nullptr) {
    sink->record_device_transfer(del.device_id,
                                 transfer_event(del, del.delivered));
  }
  return s;
}

NetDelivery deliver_round(Fleet& fleet, std::span<const ClientUpdate> updates,
                          std::span<const float> base_params) {
  if (NetworkSession* session = fleet.network()) {
    return session->deliver_round(updates, base_params);
  }
  NetDelivery d;  // pass_through: aggregate `updates` directly
  d.delivered.assign(updates.size(), 1);
  d.comm_seconds.reserve(updates.size());
  for (const ClientUpdate& u : updates) {
    d.comm_seconds.push_back(u.upload_seconds);
    d.round_seconds =
        std::max(d.round_seconds, u.train_seconds + u.upload_seconds);
    d.upload_mb += u.upload_mb;
  }
  return d;
}

}  // namespace helios::fl
