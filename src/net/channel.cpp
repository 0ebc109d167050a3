#include "net/channel.h"

#include <cmath>
#include <stdexcept>

namespace helios::net {

namespace {

constexpr double kMb = 1.0e6;

bool valid_outage(double start_s, double end_s) {
  return start_s >= 0.0 && end_s > start_s && std::isfinite(end_s);
}

}  // namespace

const char* ChannelConfig::error() const {
  if (!(latency_s >= 0.0 && jitter_s >= 0.0 && std::isfinite(latency_s) &&
        std::isfinite(jitter_s))) {
    return "SimulatedChannel: negative latency/jitter";
  }
  if (!(loss_prob >= 0.0 && loss_prob < 1.0)) {
    return "SimulatedChannel: loss_prob out of [0, 1)";
  }
  return nullptr;
}

void ChannelConfig::io(util::CheckpointArchive& ar) {
  ar.io(bandwidth_mbps);
  ar.io(latency_s);
  ar.io(jitter_s);
  ar.io(loss_prob);
  const char* bad = error();
  ar.expect(bad == nullptr, [&] { return std::string("checkpoint: ") + bad; });
}

SimulatedChannel::SimulatedChannel(ChannelConfig config,
                                   double fallback_bandwidth_mbps,
                                   util::Rng rng)
    : config_(config), rng_(rng) {
  bandwidth_mbps_ = config.bandwidth_mbps > 0.0 ? config.bandwidth_mbps
                                                : fallback_bandwidth_mbps;
  if (!(bandwidth_mbps_ > 0.0)) {
    throw std::invalid_argument("SimulatedChannel: bandwidth must be > 0");
  }
  if (const char* bad = config.error()) throw std::invalid_argument(bad);
}

void SimulatedChannel::set_config(ChannelConfig config) {
  if (config.bandwidth_mbps > 0.0) bandwidth_mbps_ = config.bandwidth_mbps;
  config_ = config;
}

void SimulatedChannel::add_outage(double start_s, double end_s) {
  if (!valid_outage(start_s, end_s)) {
    throw std::invalid_argument("SimulatedChannel: bad outage window");
  }
  outages_.emplace_back(start_s, end_s);
}

void SimulatedChannel::io(util::CheckpointArchive& ar) {
  ar.io(bandwidth_mbps_);
  config_.io(ar);
  ar.expect(bandwidth_mbps_ > 0.0,
            "checkpoint: SimulatedChannel: bandwidth must be > 0");
  ar.io(rng_);
  ar.io(death_s_);
  outages_.resize(ar.count(outages_.size(), 2 * 8));
  for (auto& [start, end] : outages_) {
    ar.io(start);
    ar.io(end);
    ar.expect(valid_outage(start, end),
              "checkpoint: SimulatedChannel: bad outage window");
  }
}

void SimulatedChannel::set_death(double at_s) {
  if (at_s < 0.0) {
    throw std::invalid_argument("SimulatedChannel: negative death time");
  }
  death_s_ = at_s;
}

double SimulatedChannel::outage_end(double t) const {
  double end = -1.0;
  for (const auto& [start, stop] : outages_) {
    if (t >= start && t < stop && stop > end) end = stop;
  }
  return end;
}

double SimulatedChannel::transfer_seconds(std::size_t bytes) const {
  return config_.latency_s +
         static_cast<double>(bytes) / (bandwidth_mbps_ * kMb);
}

SimulatedChannel::Attempt SimulatedChannel::try_send(std::size_t bytes,
                                                     double start_s) {
  Attempt a;
  if (dead_at(start_s)) {
    a.outcome = Attempt::Outcome::kDead;
    a.finish_s = start_s;
    return a;
  }
  const double resume = outage_end(start_s);
  if (resume >= 0.0) {
    a.outcome = Attempt::Outcome::kBlocked;
    a.finish_s = resume;
    return a;
  }
  double duration = transfer_seconds(bytes);
  if (config_.jitter_s > 0.0) {
    duration += rng_.uniform(0.0, config_.jitter_s);
  }
  const double finish = start_s + duration;
  // Death mid-transfer cuts the frame off; the sender finds out at the
  // moment the link goes silent.
  if (death_s_ >= 0.0 && death_s_ < finish) {
    a.outcome = Attempt::Outcome::kDead;
    a.finish_s = death_s_;
    a.bytes = bytes;
    return a;
  }
  a.bytes = bytes;
  a.finish_s = finish;
  a.outcome = (config_.loss_prob > 0.0 && rng_.bernoulli(config_.loss_prob))
                  ? Attempt::Outcome::kLost
                  : Attempt::Outcome::kDelivered;
  return a;
}

}  // namespace helios::net
