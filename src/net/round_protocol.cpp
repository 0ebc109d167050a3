#include "net/round_protocol.h"

#include <algorithm>
#include <stdexcept>

namespace helios::net {

RoundProtocol::RoundProtocol(NetworkOptions options)
    : options_(options), seed_rng_(options.seed) {
  if (options.max_retries < 0) {
    throw std::invalid_argument("RoundProtocol: negative max_retries");
  }
  if (options.retry_backoff_s < 0.0) {
    throw std::invalid_argument("RoundProtocol: negative retry backoff");
  }
  if (options.deadline_s < 0.0 || options.deadline_factor < 0.0) {
    throw std::invalid_argument("RoundProtocol: negative deadline");
  }
}

void RoundProtocol::add_device(int id, double profile_bandwidth_mbps) {
  if (channels_.count(id)) return;
  ChannelConfig cfg = options_.channel;
  auto it = overrides_.find(id);
  if (it != overrides_.end()) cfg = it->second;
  // Fork by id (not registration order) so the stream a device sees is
  // stable under churn — a joiner does not perturb existing devices.
  channels_.emplace(
      id, SimulatedChannel(cfg, profile_bandwidth_mbps,
                           seed_rng_.fork(static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(id)))));
}

SimulatedChannel& RoundProtocol::channel(int id) {
  auto it = channels_.find(id);
  if (it == channels_.end()) {
    throw std::invalid_argument("RoundProtocol: unknown device");
  }
  return it->second;
}

void RoundProtocol::io(util::CheckpointArchive& ar) {
  // Smallest encodings after the id: a config (four f64), and a channel
  // (its bandwidth, config, RNG position, death time, outage count).
  constexpr std::size_t kConfig = 4 * 8;
  constexpr std::size_t kChannel =
      8 + kConfig + util::CheckpointArchive::kRngBytes + 8 + 4;
  ar.io_map(overrides_, 4 + kConfig,
            [&](int, ChannelConfig& cfg) { cfg.io(ar); });
  ar.io_map(channels_, 4 + kChannel,
            [&](int, SimulatedChannel& ch) { ch.io(ar); });
}

void RoundProtocol::configure_device(int id, ChannelConfig config) {
  if (const char* bad = config.error()) throw std::invalid_argument(bad);
  overrides_[id] = config;
  auto it = channels_.find(id);
  if (it != channels_.end()) it->second.set_config(config);
}

void RoundProtocol::script_outage(int id, double start_s, double end_s) {
  channel(id).add_outage(start_s, end_s);
}

void RoundProtocol::script_death(int id, double at_s) {
  channel(id).set_death(at_s);
}

Delivery send_with_retries(SimulatedChannel& chan, std::size_t frame_bytes,
                           double ready_at, double deadline_abs_s,
                           int max_retries, double retry_backoff_s) {
  Delivery d;
  d.settle_s = ready_at;
  double t = ready_at;
  bool done = false;
  while (!done) {
    const SimulatedChannel::Attempt a = chan.try_send(frame_bytes, t);
    ++d.attempts;
    if (a.bytes > 0) ++d.transmissions;
    d.bytes_on_wire += a.bytes;
    d.settle_s = a.finish_s;
    switch (a.outcome) {
      case SimulatedChannel::Attempt::Outcome::kDelivered:
        d.delivered = true;
        done = true;
        break;
      case SimulatedChannel::Attempt::Outcome::kDead:
        d.died = true;
        done = true;
        break;
      case SimulatedChannel::Attempt::Outcome::kBlocked:
        // Outage: wait it out; does not consume the retry budget (nothing
        // was transmitted). Windows are finite, so this terminates.
        t = a.finish_s;
        break;
      case SimulatedChannel::Attempt::Outcome::kLost: {
        ++d.lost_frames;
        if (d.transmissions > max_retries) {
          done = true;  // retry budget exhausted; the frame is gone
          break;
        }
        // Ack timeout already elapsed at finish_s; back off before the
        // retransmit, doubling per retry.
        double backoff = retry_backoff_s;
        for (int k = 1; k < d.transmissions; ++k) backoff *= 2.0;
        t = a.finish_s + backoff;
        break;
      }
    }
  }
  d.retransmits = std::max(0, d.transmissions - 1);
  d.comm_seconds = d.settle_s - ready_at;
  if (d.delivered && deadline_abs_s > 0.0 && d.settle_s > deadline_abs_s) {
    d.deadline_missed = true;
  }
  return d;
}

Delivery RoundProtocol::send_with_retries(int device_id,
                                          std::size_t frame_bytes,
                                          double ready_at,
                                          double deadline_abs_s) {
  Delivery d = net::send_with_retries(channel(device_id), frame_bytes,
                                      ready_at, deadline_abs_s,
                                      options_.max_retries,
                                      options_.retry_backoff_s);
  d.device_id = device_id;
  return d;
}

RoundProtocol::RoundOutcome RoundProtocol::run_round(
    std::span<const Send> sends, double round_start_s,
    double analytic_hint_s) {
  double deadline_abs = 0.0;
  if (options_.deadline_s > 0.0) {
    deadline_abs = round_start_s + options_.deadline_s;
  } else if (options_.deadline_factor > 0.0 && analytic_hint_s > 0.0) {
    deadline_abs = round_start_s + options_.deadline_factor * analytic_hint_s;
  }

  RoundOutcome out;
  out.deliveries.reserve(sends.size());
  out.round_close_s = round_start_s;
  for (const Send& s : sends) {
    Delivery d =
        send_with_retries(s.device_id, s.frame_bytes, s.ready_at, deadline_abs);
    out.bytes_on_wire += d.bytes_on_wire;
    out.frames_sent += d.transmissions;
    out.lost_frames += d.lost_frames;
    out.retransmits += d.retransmits;
    out.deaths += d.died ? 1 : 0;
    if (d.delivered && !d.deadline_missed) {
      ++out.delivered;
      out.round_close_s = std::max(out.round_close_s, d.settle_s);
    } else if (deadline_abs > 0.0) {
      // A late, lost or dead participant makes the server wait until the
      // deadline, then close the round without the frame. Deaths are
      // reported separately, not as deadline misses.
      if (!d.died) ++out.deadline_misses;
      out.round_close_s = std::max(out.round_close_s, deadline_abs);
    } else {
      // No deadline: the simulation closes the round when the transfer
      // provably settles (bounded retries / death), so nothing deadlocks.
      out.round_close_s = std::max(out.round_close_s, d.settle_s);
    }
    out.deliveries.push_back(std::move(d));
  }
  return out;
}

}  // namespace helios::net
