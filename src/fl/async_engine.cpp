#include "fl/async_engine.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "fl/transport.h"
#include "obs/telemetry.h"

namespace helios::fl {

void AsyncEngine::start_client(Fleet& fleet, std::size_t i) {
  Client& c = fleet.client(i);
  InFlight& fl = inflight_[i];
  const RosterSampler* sampler = fleet.sampler();
  const bool dead = !c.active();  // a dead device is never rescheduled
  const bool parks = !dead && sampler && c.id() != reference_id_ &&
                     !sampler->selected(c.id(), recorded_);
  if (dead || parks) {
    // Out of flight: release the snapshot, capacity included, until a
    // restart takes a fresh one.
    std::vector<float>().swap(fl.base);
    std::vector<float>().swap(fl.base_buffers);
    if (parks) {
      parked_[i] = 1;
      c.hibernate();
    }
    return;
  }
  parked_[i] = 0;
  fl.base.assign(fleet.server().global().begin(),
                 fleet.server().global().end());
  fl.base_buffers.assign(fleet.server().global_buffers().begin(),
                         fleet.server().global_buffers().end());
  fl.started_version = version_;
  events_.push_back({fleet.clock().now() + c.estimate_cycle_seconds({}),
                     static_cast<int>(i)});
  std::push_heap(events_.begin(), events_.end(), std::greater<Event>{});
}

void AsyncEngine::wake_parked(Fleet& fleet) {
  if (fleet.sampler() == nullptr) return;
  for (std::size_t i = 0; i < parked_.size(); ++i) {
    if (parked_[i]) start_client(fleet, i);
  }
}

bool AsyncEngine::reanchor(Fleet& fleet) {
  const auto capable = fleet.capable();
  const auto active = fleet.active_clients();
  if (!capable.empty()) {
    reference_id_ = capable.front()->id();
  } else if (!active.empty()) {
    reference_id_ = active.front()->id();
  } else {
    return false;
  }
  wake_parked(fleet);
  return true;
}

void AsyncEngine::train_wave(Fleet& fleet, std::size_t popped) {
  std::vector<std::size_t> wave{popped};
  const auto ref = std::find_if(
      events_.begin(), events_.end(),
      [&](const Event& ev) { return ev.client_index == reference_id_; });
  if (ref != events_.end()) {
    for (const Event& ev : events_) {
      const auto i = static_cast<std::size_t>(ev.client_index);
      if ((&ev == &*ref || ev.time < ref->time) && !inflight_[i].upload) {
        wave.push_back(i);
      }
    }
  }
  obs::TelemetrySink* tel = fleet.telemetry();
  std::vector<Client*> roster;
  roster.reserve(wave.size());
  for (std::size_t i : wave) {
    Client& c = fleet.client(i);
    // On the driving thread: the estimate may use the shared architecture
    // twin.
    if (tel) inflight_[i].cycle_seconds = c.estimate_cycle_seconds({});
    roster.push_back(&c);
  }
  std::vector<Upload> uploads = train_uploads(
      fleet, roster,
      [&](std::size_t k) -> const InFlight& { return inflight_[wave[k]]; });
  for (std::size_t k = 0; k < wave.size(); ++k) {
    inflight_[wave[k]].upload = std::move(uploads[k]);
  }
}

void AsyncEngine::run_range(Fleet& fleet, RunResult& result, int begin,
                            int end) {
  if (fleet.size() == 0) throw std::logic_error("AsyncEngine: empty fleet");
  if (begin == 0) {
    const auto capable = fleet.capable();
    reference_id_ =
        capable.empty() ? fleet.client(0).id() : capable.front()->id();
    events_.clear();
    inflight_.clear();
    parked_.clear();
    version_ = 0;
    recorded_ = 0;
    loss_acc_ = 0.0;
    upload_acc_ = 0.0;
    loss_count_ = 0;
  } else if (begin != recorded_) {
    // The carried state encodes progress through `recorded_` rounds; a
    // mismatched begin means the caller and the engine disagree about
    // where the run stands.
    throw std::logic_error("AsyncEngine: run_range begin != engine progress");
  }
  // Joiner rule: every device past the tables has never been scheduled.
  const std::size_t known = inflight_.size();
  inflight_.resize(fleet.size());
  parked_.resize(fleet.size(), 0);
  for (std::size_t i = known; i < fleet.size(); ++i) start_client(fleet, i);
  // A reference that died with no completion pending (the all-dead stop, or
  // a departure between calls while parked) would never record again.
  const auto ref = static_cast<std::size_t>(reference_id_);
  if (!fleet.client(ref).active() &&
      std::none_of(events_.begin(), events_.end(), [&](const Event& ev) {
        return ev.client_index == reference_id_;
      })) {
    if (!reanchor(fleet)) return;  // no device left to record a round
  }

  NetworkSession* session = fleet.network();
  obs::TelemetrySink* tel = fleet.telemetry();
  while (recorded_ < end && !events_.empty()) {
    HELIOS_TRACE_SPAN(completion_span_, {{"cycle", recorded_}});
    std::pop_heap(events_.begin(), events_.end(), std::greater<Event>{});
    const Event ev = events_.back();
    events_.pop_back();
    if (ev.time > fleet.clock().now()) fleet.clock().advance_to(ev.time);
    const auto index = static_cast<std::size_t>(ev.client_index);
    Client& client = fleet.client(index);
    InFlight& fl = inflight_[index];
    if (!fl.upload) train_wave(fleet, index);
    Upload upload = std::move(*fl.upload);
    fl.upload.reset();
    const ClientUpdate& update = upload.update;
    // The device finished *at* ev.time; backdate the sink so the Gantt slab
    // covers the cycle it just spent training.
    if (tel) tel->set_virtual_time(std::max(0.0, ev.time - fl.cycle_seconds));
    client.record_cycle(update);

    bool accepted = true;
    if (session != nullptr) {
      // ev.time already contains the analytic upload; the frame leaves the
      // device when training ends.
      const NetworkSession::SingleDelivery sd =
          session->deliver_update(upload, ev.time - update.upload_seconds);
      if (!sd.delivered) {
        accepted = false;  // lost after retries or the device died mid-upload
      } else if (sd.settle_s > fleet.clock().now()) {
        fleet.clock().advance_to(sd.settle_s);
      }
    }
    const bool is_reference = client.id() == reference_id_;
    // The reference died: re-anchor recording on a survivor so the run
    // completes.
    if (is_reference && !client.active() && !reanchor(fleet)) {
      break;  // everyone is dead; nothing left to record
    }
    if (accepted) {
      const double staleness =
          static_cast<double>(version_ - fl.started_version);
      fleet.server().mix(
          update, alpha_ * std::pow(1.0 + staleness, -staleness_exponent_));
      ++version_;
      loss_acc_ += update.mean_loss;
      upload_acc_ += update.upload_mb;
      ++loss_count_;
    }

    if (is_reference && client.active()) {
      result.rounds.push_back({recorded_, fleet.clock().now(),
                               fleet.evaluate(),
                               loss_count_ ? loss_acc_ / loss_count_ : 0.0,
                               upload_acc_});
      if (tel) {
        const RoundRecord& r = result.rounds.back();
        tel->record_cycle_result(
            recorded_, r.virtual_time,
            {.strategy = result.method, .accuracy = r.test_accuracy,
             .mean_loss = r.mean_train_loss, .upload_mb = r.upload_mb});
      }
      ++recorded_;
      loss_acc_ = 0.0;
      upload_acc_ = 0.0;
      loss_count_ = 0;
      wake_parked(fleet);  // round advanced: re-draw the parked clients
    }
    start_client(fleet, index);
  }
}

void AsyncEngine::io(Fleet& fleet, CheckpointArchive& ar) {
  if (std::any_of(inflight_.begin(), inflight_.end(),
                  [](const InFlight& fl) { return fl.upload.has_value(); })) {
    throw std::logic_error("AsyncEngine: checkpoint mid-wave");
  }
  ar.io(version_);
  ar.io(reference_id_);
  ar.io(recorded_);
  ar.io(loss_acc_);
  ar.io(upload_acc_);
  ar.io(loss_count_);
  ar.io(parked_);
  events_.resize(ar.count(events_.size(), 8 + 4));
  for (Event& ev : events_) {
    ar.io(ev.time);
    ar.io(ev.client_index);
  }
  const std::uint32_t n_inflight = ar.count(inflight_.size(), 4 + 4 + 8);
  ar.expect(n_inflight <= fleet.size(),
            "AsyncEngine: in-flight table longer than the fleet");
  inflight_.resize(n_inflight);
  for (InFlight& fl : inflight_) {
    ar.io(fl.base);
    ar.io(fl.base_buffers);
    ar.io(fl.started_version);
  }
  if (!ar.loading()) return;

  ar.expect(parked_.size() == n_inflight,
            "AsyncEngine: parked table does not match");
  // A wave trains every scheduled device at once, so each must be scheduled
  // once, and the heap must pop in time order for the wave to end with the
  // round.
  std::vector<std::uint8_t> scheduled(n_inflight, 0);
  for (const Event& ev : events_) {
    ar.expect(std::isfinite(ev.time), "AsyncEngine: event time is not finite");
    ar.expect(ev.client_index >= 0 &&
                  static_cast<std::uint32_t>(ev.client_index) < n_inflight,
              "AsyncEngine: event outside the tables");
    const auto i = static_cast<std::size_t>(ev.client_index);
    ar.expect(!scheduled[i] && !parked_[i],
              "AsyncEngine: device scheduled twice");
    scheduled[i] = 1;
  }
  ar.expect(std::is_heap(events_.begin(), events_.end(), std::greater<Event>{}),
            "AsyncEngine: events out of heap order");
  // Only the reference's pop records a round; an active reference that
  // never pops would run the loop forever. An engine saved before its first
  // run_range has no tables and no reference yet.
  if (n_inflight == 0 && recorded_ == 0) return;
  ar.expect(reference_id_ >= 0 &&
                static_cast<std::uint32_t>(reference_id_) < n_inflight,
            "AsyncEngine: reference outside the tables");
  const auto ref = static_cast<std::size_t>(reference_id_);
  ar.expect(scheduled[ref] || !fleet.client(ref).active(),
            "AsyncEngine: active reference has no pending event");
  // What start_client leaves for a scheduled device: the live model's
  // shapes, a start version no later than the mix count, and a completion
  // one cycle estimate after the clock at most. A later completion would
  // let the other devices complete and restart ahead of the reference
  // without end.
  const double now = fleet.clock().now();
  for (const Event& ev : events_) {
    const auto i = static_cast<std::size_t>(ev.client_index);
    const InFlight& fl = inflight_[i];
    ar.expect(fl.base.size() == fleet.server().param_count() &&
                  fl.base_buffers.size() ==
                      fleet.server().global_buffers().size(),
              "AsyncEngine: in-flight base does not match the model");
    ar.expect(fl.started_version >= 0 && fl.started_version <= version_,
              "AsyncEngine: start version outside the mix count");
    ar.expect(ev.time <= now + fleet.client(i).estimate_cycle_seconds({}),
              "AsyncEngine: event beyond its device's cycle");
  }
}

}  // namespace helios::fl
