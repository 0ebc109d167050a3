#include "fl/async.h"

#include <algorithm>
#include <stdexcept>

#include "fl/checkpoint.h"
#include "fl/transport.h"
#include "obs/telemetry.h"

namespace helios::fl {

AsyncFL::AsyncFL(int straggler_period, double mix_beta)
    : straggler_period_(straggler_period),
      engine_("async.completion", mix_beta, 0.0) {
  if (straggler_period < 0) {
    throw std::invalid_argument("AsyncFL: negative period");
  }
  if (mix_beta <= 0.0 || mix_beta > 1.0) {
    throw std::invalid_argument("AsyncFL: mix_beta out of (0, 1]");
  }
}

std::string AsyncFL::name() const {
  if (straggler_period_ == 0) return "Asyn. FL";
  return "Asyn. FL (period " + std::to_string(straggler_period_) + ")";
}

void AsyncFL::run_range(Fleet& fleet, RunResult& result, int begin, int end) {
  // Period mode aggregates the capable devices every cycle; the engine
  // records rounds on one. Unlike AFO, Asyn. FL has no fallback to client 0.
  if ((straggler_period_ > 0 || begin == 0) && fleet.capable().empty()) {
    throw std::logic_error("AsyncFL: no capable devices");
  }
  if (straggler_period_ == 0) {
    engine_.run_range(fleet, result, begin, end);
  } else {
    run_period(fleet, result, begin, end);
  }
}

void AsyncFL::run_period(Fleet& fleet, RunResult& result, int begin,
                         int end) {
  AggOptions opts;

  if (begin == 0) period_state_.clear();

  NetworkSession* session = fleet.network();
  obs::TelemetrySink* tel = fleet.telemetry();

  for (int cycle = begin; cycle < end; ++cycle) {
    HELIOS_TRACE_SPAN("async.cycle", {{"cycle", cycle}});
    if (tel) tel->set_cycle(cycle);
    // Rosters are re-derived per cycle so churn (deaths, joins) takes
    // effect; identical to the loop-invariant lists absent churn. With a
    // population sampler, only the cycle's cohort participates: unsampled
    // capables sit out, unsampled idle stragglers don't start, and a busy
    // straggler's due update waits until it is sampled again.
    std::vector<Client*> capable;
    std::vector<Client*> stragglers;
    for (Client* c : fleet.round_roster(cycle)) {
      (c->is_straggler() ? stragglers : capable).push_back(c);
    }
    // Start any idle straggler on the current global snapshot.
    for (Client* s : stragglers) {
      auto& st = period_state_[s->id()];
      if (!st.busy) {
        st.base.assign(fleet.server().global().begin(),
                       fleet.server().global().end());
        st.base_buffers.assign(fleet.server().global_buffers().begin(),
                               fleet.server().global_buffers().end());
        st.busy = true;
        st.started_cycle = cycle;
      }
    }

    // Capable devices train synchronously among themselves; their cycles
    // are independent and fan out across the pool.
    std::vector<ClientUpdate> updates = Fleet::parallel_train(
        capable, [&](Client& c, std::size_t) {
          return c.train_cycle(fleet.server().global(),
                               fleet.server().global_buffers(), {});
        });
    // Telemetry of a fanned-out batch: in roster order, on this thread.
    for (std::size_t i = 0; i < capable.size(); ++i) {
      capable[i]->record_cycle(updates[i]);
    }
    double loss = 0.0;
    for (const ClientUpdate& u : updates) loss += u.mean_loss;
    std::size_t trained_count = updates.size();
    NetDelivery net = deliver_round(fleet, updates, fleet.server().global());
    fleet.clock().advance(net.round_seconds);
    double upload = net.upload_mb;

    // What the server aggregates this cycle: the capable arrivals...
    std::vector<ClientUpdate> agg = net.pass_through
                                        ? std::move(updates)
                                        : std::move(net.arrived);

    // ...plus straggler updates whose period elapsed. Each trains from the
    // stale snapshot it started on (not the live global), so the due batch
    // is independent too and fans out; appending in `stragglers` order
    // keeps aggregation order identical to the sequential path.
    std::vector<Client*> due;
    for (Client* s : stragglers) {
      auto& st = period_state_[s->id()];
      if (!st.busy) continue;
      if (cycle - st.started_cycle + 1 < straggler_period_) continue;
      due.push_back(s);
    }
    // With a session, each task also encodes and decodes its straggler's
    // upload against that snapshot (the asynchronous strategies' one path).
    std::vector<Upload> straggler_uploads = train_uploads(
        fleet, due, [&](std::size_t k) -> const PeriodState& {
          return period_state_.at(due[k]->id());  // no concurrent mutation
        });
    for (std::size_t i = 0; i < due.size(); ++i) {
      due[i]->record_cycle(straggler_uploads[i].update);
    }
    trained_count += due.size();
    for (std::size_t i = 0; i < due.size(); ++i) {
      period_state_[due[i]->id()].busy = false;
      Upload& up = straggler_uploads[i];
      loss += up.update.mean_loss;
      // The straggler's frame crosses the network on its own (it is not
      // part of the round's deadline scope — the period already absorbs its
      // lateness); a lost frame or a death drops the update.
      if (session != nullptr &&
          !session->deliver_update(up, fleet.clock().now()).delivered) {
        continue;
      }
      upload += up.update.upload_mb;
      agg.push_back(std::move(up.update));
    }

    fleet.server().aggregate(agg, opts);
    result.rounds.push_back(
        {cycle, fleet.clock().now(), fleet.evaluate(),
         loss / static_cast<double>(std::max<std::size_t>(1, trained_count)),
         upload});
    if (tel) {
      const RoundRecord& r = result.rounds.back();
      tel->record_cycle_result(
          cycle, r.virtual_time,
          {.strategy = result.method, .accuracy = r.test_accuracy,
           .mean_loss = r.mean_train_loss, .upload_mb = r.upload_mb});
    }
  }
}

void AsyncFL::io(Fleet& fleet, CheckpointArchive& ar) {
  if (straggler_period_ == 0) {
    engine_.io(fleet, ar);
    return;
  }
  // Per entry: two vector lengths, the busy flag and the start cycle.
  ar.io_map(period_state_, 4 + 4 + 4 + 1 + 4, [&](int, PeriodState& st) {
    ar.io(st.base);
    ar.io(st.base_buffers);
    ar.io(st.busy);
    ar.io(st.started_cycle);
    // A busy straggler trains from its base at its due cycle.
    ar.expect(st.started_cycle >= 0 &&
                  (!st.busy ||
                   (st.base.size() == fleet.server().param_count() &&
                    st.base_buffers.size() ==
                        fleet.server().global_buffers().size())),
              "AsyncFL: period state does not match the model");
  });
}

}  // namespace helios::fl
