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
  if (!c.active()) return;  // dead device: never rescheduled
  const RosterSampler* sampler = fleet.sampler();
  if (sampler && c.id() != reference_id_ &&
      !sampler->selected(c.id(), recorded_)) {
    parked_[i] = 1;
    c.hibernate();
    return;
  }
  parked_[i] = 0;
  InFlight& fl = inflight_[i];
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
    const InFlight& fl = inflight_[index];
    // The device finished *at* ev.time; backdate the sink so the Gantt slab
    // covers the cycle it just spent training.
    if (tel) {
      tel->set_virtual_time(
          std::max(0.0, ev.time - client.estimate_cycle_seconds({})));
    }

    ClientUpdate update = client.run_cycle(fl.base, fl.base_buffers, {});
    bool accepted = true;
    if (session != nullptr) {
      // ev.time already contains the analytic upload; the frame leaves the
      // device when training ends.
      NetworkSession::SingleDelivery sd = session->deliver_update(
          update, fl.base, ev.time - update.upload_seconds);
      if (sd.delivered) {
        if (sd.settle_s > fleet.clock().now()) {
          fleet.clock().advance_to(sd.settle_s);
        }
        update = std::move(sd.update);
      } else {
        accepted = false;  // lost after retries or the device died mid-upload
      }
    }
    const bool is_reference = client.id() == reference_id_;
    if (is_reference && !client.active()) {
      // The reference died: re-anchor recording on a survivor so the run
      // completes, and wake it in case it is parked.
      const auto capable = fleet.capable();
      const auto active = fleet.active_clients();
      if (!capable.empty()) {
        reference_id_ = capable.front()->id();
      } else if (!active.empty()) {
        reference_id_ = active.front()->id();
      } else {
        break;  // everyone is dead; nothing left to record
      }
      wake_parked(fleet);
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
        tel->record_cycle_result(result.method, recorded_, r.virtual_time,
                                 r.test_accuracy, r.mean_train_loss,
                                 r.upload_mb);
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
}

}  // namespace helios::fl
