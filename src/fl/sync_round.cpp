#include "fl/sync_round.h"

#include <algorithm>

#include "obs/telemetry.h"
#include "util/thread_pool.h"

namespace helios::fl {

std::vector<PlannedClient> SyncRoundStrategy::plan(Fleet& fleet, int cycle) {
  std::vector<PlannedClient> plan;
  for (Client* client : fleet.round_roster(cycle)) {
    plan.push_back({client, {}, 1.0});
  }
  return plan;
}

void SyncRoundStrategy::run_range(Fleet& fleet, RunResult& result, int begin,
                                  int end) {
  if (begin == 0) begin_run(fleet);
  obs::TelemetrySink* tel = fleet.telemetry();
  for (int cycle = begin; cycle < end; ++cycle) {
    HELIOS_TRACE_SPAN(cycle_span_, {{"cycle", cycle}});
    if (tel) tel->set_cycle(cycle);
    SyncRound round;
    round.cycle = cycle;
    round.plan = plan(fleet, cycle);
    round.global_before.assign(fleet.server().global().begin(),
                               fleet.server().global().end());
    const std::vector<float> buffers_before(
        fleet.server().global_buffers().begin(),
        fleet.server().global_buffers().end());

    // Every per-client decision was made in plan(), so the cycles are
    // independent and fan out; updates come back in plan order.
    std::vector<Client*> roster;
    roster.reserve(round.plan.size());
    for (const PlannedClient& p : round.plan) roster.push_back(p.client);
    {
      // The driving thread trains its share of the cycles inside this span,
      // so its self time is the wait for the other workers.
      HELIOS_TRACE_SPAN("round.train");
      round.updates = Fleet::parallel_train(
          roster, [&](Client& client, std::size_t i) {
            return client.train_cycle(round.global_before, buffers_before,
                                      round.plan[i].mask,
                                      round.plan[i].work_scale);
          });
    }
    {
      // Telemetry in roster order, whichever worker trained the cycle; it
      // reports each update as trained, before post_train rewrites it.
      HELIOS_TRACE_SPAN("round.record_cycles");
      for (std::size_t i = 0; i < roster.size(); ++i) {
        roster[i]->record_cycle(round.updates[i]);
      }
    }
    {
      HELIOS_TRACE_SPAN("round.post_train");
      util::parallel_for_each(roster.size(), [&](std::size_t i) {
        post_train(fleet, round.updates[i], round.global_before);
      });
    }
    {
      // The network (if any) decides what arrived and how long the round
      // took; without a session this is the analytic max(train + upload).
      HELIOS_TRACE_SPAN("round.deliver");
      round.net = deliver_round(fleet, round.updates, round.global_before);
    }
    fleet.clock().advance(round.net.round_seconds);
    fleet.server().aggregate(round.net.aggregate_span(round.updates), agg_);
    {
      HELIOS_TRACE_SPAN("round.after_aggregate");
      after_aggregate(fleet, round);
    }

    double loss = 0.0;
    for (const ClientUpdate& u : round.updates) loss += u.mean_loss;
    result.rounds.push_back(
        {cycle, fleet.clock().now(), fleet.evaluate(),
         loss / static_cast<double>(
                    std::max<std::size_t>(1, round.updates.size())),
         round.net.upload_mb});
    if (tel) {
      const RoundRecord& r = result.rounds.back();
      tel->record_cycle_result(
          cycle, r.virtual_time,
          {.strategy = result.method, .accuracy = r.test_accuracy,
           .mean_loss = r.mean_train_loss, .upload_mb = r.upload_mb});
    }
  }
}

}  // namespace helios::fl
