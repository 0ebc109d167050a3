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

void AsyncEngine::save_state(CheckpointWriter& w) const {
  if (std::any_of(inflight_.begin(), inflight_.end(),
                  [](const InFlight& fl) { return fl.upload.has_value(); })) {
    throw std::logic_error("AsyncEngine: save_state mid-wave");
  }
  w.i64(static_cast<std::int64_t>(version_));
  w.i32(reference_id_);
  w.i32(recorded_);
  w.f64(loss_acc_);
  w.f64(upload_acc_);
  w.i32(loss_count_);
  w.vec_u8(parked_);
  w.u32(static_cast<std::uint32_t>(events_.size()));
  for (const Event& ev : events_) {
    w.f64(ev.time);
    w.i32(ev.client_index);
  }
  w.u32(static_cast<std::uint32_t>(inflight_.size()));
  for (const InFlight& fl : inflight_) {
    w.vec_f32(fl.base);
    w.vec_f32(fl.base_buffers);
    w.i64(static_cast<std::int64_t>(fl.started_version));
  }
}

void AsyncEngine::load_state(Fleet& fleet, CheckpointReader& r) {
  version_ = static_cast<long>(r.i64());
  reference_id_ = r.i32();
  recorded_ = r.i32();
  loss_acc_ = r.f64();
  upload_acc_ = r.f64();
  loss_count_ = r.i32();
  parked_ = r.vec_u8();
  events_.clear();
  const std::uint32_t n_events = r.u32();
  for (std::uint32_t i = 0; i < n_events; ++i) {
    // Braced initializers evaluate left to right: time, then client index.
    events_.push_back(Event{r.f64(), r.i32()});
  }
  const std::uint32_t n_inflight = r.u32();
  if (n_inflight > fleet.size()) {
    throw CheckpointError("AsyncEngine: in-flight table longer than the fleet");
  }
  inflight_.assign(n_inflight, InFlight{});
  for (InFlight& fl : inflight_) {
    fl.base = r.vec_f32();
    fl.base_buffers = r.vec_f32();
    fl.started_version = static_cast<long>(r.i64());
  }
  if (parked_.size() != n_inflight) {
    throw CheckpointError("AsyncEngine: parked table does not match");
  }
  // A wave trains every scheduled device at once, so each must be scheduled
  // once, and the heap must pop in time order for the wave to end with the
  // round.
  std::vector<std::uint8_t> scheduled(n_inflight, 0);
  for (const Event& ev : events_) {
    if (!std::isfinite(ev.time)) {
      throw CheckpointError("AsyncEngine: event time is not finite");
    }
    if (ev.client_index < 0 ||
        static_cast<std::uint32_t>(ev.client_index) >= n_inflight) {
      throw CheckpointError("AsyncEngine: event outside the tables");
    }
    const auto i = static_cast<std::size_t>(ev.client_index);
    if (scheduled[i] || parked_[i]) {
      throw CheckpointError("AsyncEngine: device scheduled twice");
    }
    scheduled[i] = 1;
  }
  if (!std::is_heap(events_.begin(), events_.end(), std::greater<Event>{})) {
    throw CheckpointError("AsyncEngine: events out of heap order");
  }
  // Only the reference's pop records a round; an active reference that
  // never pops would run the loop forever. An engine saved before its first
  // run_range has no tables and no reference yet.
  if (n_inflight == 0 && recorded_ == 0) return;
  if (reference_id_ < 0 ||
      static_cast<std::uint32_t>(reference_id_) >= n_inflight) {
    throw CheckpointError("AsyncEngine: reference outside the tables");
  }
  const auto ref = static_cast<std::size_t>(reference_id_);
  if (!scheduled[ref] && fleet.client(ref).active()) {
    throw CheckpointError(
        "AsyncEngine: active reference has no pending event");
  }
}

}  // namespace helios::fl
