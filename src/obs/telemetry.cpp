#include "obs/telemetry.h"

#include <filesystem>
#include <sstream>
#include <string>
#include <system_error>

#include "obs/procstat.h"
#include "util/atomic_file.h"
#include "util/log.h"

namespace helios::obs {
namespace {

std::atomic<TelemetrySink*> g_sink{nullptr};

std::string device_label(int device) { return std::to_string(device); }

}  // namespace

TelemetrySink* global_sink() {
  return g_sink.load(std::memory_order_relaxed);
}

TelemetrySink::TelemetrySink(TelemetryConfig config)
    : config_(std::move(config)) {
  if (config_.tracing) {
    if (!config_.artifact_prefix.empty()) {
      trace_file_ = std::make_unique<std::ofstream>(
          config_.artifact_prefix + ".trace.json");
      tracer_ = std::make_unique<TraceWriter>(*trace_file_);
    } else {
      tracer_ = std::make_unique<TraceWriter>(trace_buffer_);
    }
    tracer_->name_process(1, "helios (wall clock)");
    tracer_->name_process(2, "helios (virtual time)");
  }
  if (config_.journal) {
    const std::optional<JournalPosition>& resume = config_.journal_resume;
    if (!config_.artifact_prefix.empty()) {
      const std::string path = config_.artifact_prefix + ".journal.jsonl";
      if (resume) {
        // Continue the crashed run's journal: drop any torn tail written
        // after the checkpoint, then append. The checkpointed offset is a
        // line boundary (the journal flushes before reporting its
        // position), so the file stays valid JSONL.
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
          std::filesystem::resize_file(path, resume->byte_offset, ec);
        }
        // in|out|ate (not app): positions at the end immediately, so
        // tellp() — the next checkpoint's journal offset — is valid even
        // before the first new event lands.
        journal_file_ = std::make_unique<std::ofstream>(
            path, std::ios::in | std::ios::out | std::ios::ate);
        if (!journal_file_->is_open()) {
          // No prior journal survived (e.g. crash before the first flush):
          // start a fresh file but keep the resumed event counter.
          journal_file_ = std::make_unique<std::ofstream>(path);
        }
        journal_ = std::make_unique<RunJournal>(journal_file_.get(),
                                                resume->events);
      } else {
        journal_file_ = std::make_unique<std::ofstream>(path);
        journal_ = std::make_unique<RunJournal>(journal_file_.get());
      }
    } else if (resume) {
      journal_ = std::make_unique<RunJournal>(&journal_buffer_, resume->events);
    } else {
      journal_ = std::make_unique<RunJournal>(&journal_buffer_);
    }
  }
}

TelemetrySink::~TelemetrySink() {
  uninstall();
  flush();
}

void TelemetrySink::install() {
  g_sink.store(this, std::memory_order_release);
  set_active_tracer(tracer_.get());
  util::set_log_context_provider([this]() -> std::string {
    const int cycle = cycle_.load(std::memory_order_relaxed);
    const int device = device_.load(std::memory_order_relaxed);
    std::string out;
    if (cycle >= 0) out += "cycle=" + std::to_string(cycle);
    if (device >= 0) {
      if (!out.empty()) out += ' ';
      out += "device=" + std::to_string(device);
    }
    return out;
  });
}

void TelemetrySink::uninstall() {
  if (g_sink.load(std::memory_order_acquire) != this) return;
  g_sink.store(nullptr, std::memory_order_release);
  if (active_tracer() == tracer_.get()) set_active_tracer(nullptr);
  util::set_log_context_provider(nullptr);
}

void TelemetrySink::set_virtual_time(double seconds) {
  virtual_time_.store(seconds, std::memory_order_relaxed);
  if (tracer_) tracer_->set_virtual_time(seconds);
  metrics_.gauge("helios.run.virtual_time_seconds").set(seconds);
}

void TelemetrySink::record_client_cycle(int device, const TrainEvent& e) {
  const LabelSet labels{{"device", device_label(device)}};
  metrics_.counter("helios.client.cycles_total", labels).add(1.0);
  metrics_.counter("helios.client.upload_mb_total", labels).add(e.upload_mb);
  metrics_.histogram("helios.client.train_seconds", labels)
      .observe(e.train_seconds);
  metrics_.histogram("helios.client.upload_seconds", labels)
      .observe(e.upload_seconds);
  metrics_.gauge("helios.client.volume", labels).set(e.volume);
  metrics_.gauge("helios.client.mean_loss", labels).set(e.mean_loss);
  dashboard_.record(device, e);
  if (journal_) journal_->record(journal_stamp(device), e);

  // Virtual-time Gantt: one "train" + one "upload" slab per cycle on the
  // device's track, starting at the sink's current virtual time (set by the
  // strategy when the cycle began).
  if (tracer_) {
    const double start_us = virtual_time() * 1e6;
    tracer_->complete("train", device, start_us, e.train_seconds * 1e6,
                      {{"device", device}, {"loss", e.mean_loss}});
    tracer_->complete("upload", device, start_us + e.train_seconds * 1e6,
                      e.upload_seconds * 1e6,
                      {{"device", device}, {"mb", e.upload_mb}});
    if (!e.profile.empty()) {
      tracer_->name_thread(device, e.profile, /*pid=*/2);
    }
  }
}

void TelemetrySink::record_aggregation_weight(int device, const AggEvent& e) {
  const LabelSet labels{{"device", device_label(device)}};
  metrics_.gauge("helios.server.r_n", labels).set(e.r_n);
  metrics_.gauge("helios.server.alpha_share", labels).set(e.alpha);
  dashboard_.record(device, e);
  if (journal_) journal_->record(journal_stamp(device), e);
}

void TelemetrySink::record_rotation(int device, const RotationEvent& e) {
  const LabelSet labels{{"device", device_label(device)}};
  metrics_.counter("helios.rotation.forced_total", labels)
      .add(static_cast<double>(e.forced));
  // C_s is small and integer-valued; log-scale buckets starting at 1 with
  // growth 2 give exact 0/1/2-ish resolution where it matters.
  metrics_.histogram("helios.rotation.skipped_cycles", labels,
                     HistogramOptions{1.0, 2.0, 6})
      .observe(static_cast<double>(e.cs1 + e.cs2 + e.cs3));
  dashboard_.record(device, e);
  if (journal_) journal_->record(journal_stamp(device), e);
}

void TelemetrySink::record_cycle_result(int cycle, double virtual_time,
                                        const RoundEvent& e) {
  set_cycle(cycle);
  set_virtual_time(virtual_time);
  const LabelSet labels{{"strategy", std::string(e.strategy)}};
  metrics_.counter("helios.run.cycles_total", labels).add(1.0);
  metrics_.gauge("helios.run.accuracy", labels).set(e.accuracy);
  metrics_.gauge("helios.run.mean_loss", labels).set(e.mean_loss);
  metrics_.counter("helios.run.upload_mb_total", labels).add(e.upload_mb);
  if (tracer_) {
    tracer_->instant("cycle.complete",
                     {{"cycle", cycle},
                      {"accuracy", e.accuracy},
                      {"strategy", e.strategy}});
  }
  if (journal_) journal_->record({cycle, -1, virtual_time}, e);
}

void TelemetrySink::record_device_transfer(int device,
                                           const TransferEvent& e) {
  const LabelSet labels{{"device", device_label(device)}};
  metrics_.counter("helios.net.bytes_on_wire_total", labels)
      .add(static_cast<double>(e.bytes_on_wire));
  metrics_.counter("helios.net.frames_sent_total", labels)
      .add(static_cast<double>(e.transmissions));
  if (e.lost_frames > 0) {
    metrics_.counter("helios.net.frames_lost_total", labels)
        .add(static_cast<double>(e.lost_frames));
  }
  if (!e.delivered) {
    metrics_.counter("helios.net.drops_total", labels).add(1.0);
  }
  if (e.died) {
    metrics_.counter("helios.net.device_deaths_total", labels).add(1.0);
  }
  metrics_.histogram("helios.net.comm_seconds", labels).observe(e.comm_seconds);
  dashboard_.record(device, e);
  if (journal_) journal_->record(journal_stamp(device), e);
  if (tracer_ && e.died) {
    tracer_->instant("device.death", {{"device", device}});
  }
}

void TelemetrySink::record_network_round(NetRoundEvent e) {
  metrics_.counter("helios.net.round_bytes_on_wire_total")
      .add(static_cast<double>(e.bytes_on_wire));
  metrics_.counter("helios.net.round_participants_total")
      .add(static_cast<double>(e.participants));
  metrics_.counter("helios.net.round_delivered_total")
      .add(static_cast<double>(e.delivered));
  metrics_.counter("helios.net.round_lost_total")
      .add(static_cast<double>(e.lost_frames));
  metrics_.counter("helios.net.round_retransmits_total")
      .add(static_cast<double>(e.retransmits));
  metrics_.counter("helios.net.deadline_missed_total")
      .add(static_cast<double>(e.deadline_misses));
  metrics_.counter("helios.net.deaths_total")
      .add(static_cast<double>(e.deaths));
  // A partial round (fewer arrivals than participants) makes the server
  // renormalize the aggregation weights over what actually arrived.
  e.renormalized = e.delivered < e.participants;
  if (journal_) journal_->record(journal_stamp(-1), e);
}

void TelemetrySink::record_codec(int device, const CodecEvent& e) {
  const LabelSet labels{{"device", device_label(device)}};
  metrics_.counter("helios.codec.bytes_in_total", labels)
      .add(static_cast<double>(e.bytes_in));
  metrics_.counter("helios.codec.bytes_out_total", labels)
      .add(static_cast<double>(e.bytes_out));
  if (e.bytes_out > 0) {
    metrics_.histogram("helios.codec.ratio")
        .observe(static_cast<double>(e.bytes_in) /
                 static_cast<double>(e.bytes_out));
  }
  metrics_.gauge("helios.codec.residual_norm", labels).set(e.residual_norm);
  dashboard_.record(device, e);
  if (journal_) journal_->record(journal_stamp(device), e);
}

void TelemetrySink::record_tier_merge(const MergeEvent& e) {
  const LabelSet labels{{"tier", std::string(e.tier)}};
  metrics_.counter("helios.agg.frames_folded_total", labels)
      .add(static_cast<double>(e.frames_folded));
  metrics_.counter("helios.agg.bytes_forwarded_total", labels)
      .add(static_cast<double>(e.bytes_forwarded));
  if (e.raw_bytes > 0) {
    metrics_.counter("helios.agg.raw_bytes_total", labels)
        .add(static_cast<double>(e.raw_bytes));
  }
  if (e.deadline_misses > 0) {
    metrics_.counter("helios.agg.deadline_missed_total", labels)
        .add(static_cast<double>(e.deadline_misses));
  }
  if (e.retransmits > 0) {
    metrics_.counter("helios.agg.retransmits_total", labels)
        .add(static_cast<double>(e.retransmits));
  }
  if (e.lost_frames > 0) {
    metrics_.counter("helios.agg.frames_lost_total", labels)
        .add(static_cast<double>(e.lost_frames));
  }
  metrics_.histogram("helios.agg.fold_seconds", labels)
      .observe(e.fold_seconds);
  dashboard_.record(e);
  if (journal_) journal_->record(journal_stamp(-1), e);
}

void TelemetrySink::record_cohort(int round, const CohortEvent& e) {
  metrics_.gauge("helios.sim.population")
      .set(static_cast<double>(e.population));
  metrics_.gauge("helios.sim.active").set(static_cast<double>(e.active));
  metrics_.gauge("helios.sim.cohort").set(static_cast<double>(e.sampled));
  metrics_.counter("helios.sim.sampled_total")
      .add(static_cast<double>(e.sampled));
  metrics_.histogram("helios.sim.cohort_size")
      .observe(static_cast<double>(e.sampled));
  if (tracer_) {
    tracer_->instant("sim.cohort", {{"round", round},
                                    {"sampled", static_cast<int>(e.sampled)},
                                    {"active", static_cast<int>(e.active)}});
  }
  if (journal_) journal_->record({round, -1, virtual_time()}, e);
}

void TelemetrySink::record_churn(int round, const ChurnEvent& e) {
  metrics_.gauge("helios.sim.population")
      .set(static_cast<double>(e.population));
  if (e.arrivals > 0) {
    metrics_.counter("helios.sim.arrivals_total")
        .add(static_cast<double>(e.arrivals));
  }
  if (e.departures > 0) {
    metrics_.counter("helios.sim.departures_total")
        .add(static_cast<double>(e.departures));
  }
  if (e.arrivals == 0 && e.departures == 0) return;
  if (tracer_) {
    tracer_->instant("sim.churn", {{"round", round},
                                   {"arrivals", e.arrivals},
                                   {"departures", e.departures}});
  }
  if (journal_) journal_->record({round, -1, virtual_time()}, e);
}

void TelemetrySink::record_device_skipped(int round, int device,
                                          const SkipEvent& e) {
  metrics_.counter("helios.sim.skipped_total", {{"reason", std::string(e.why)}})
      .add(1.0);
  if (journal_) journal_->record({round, device, virtual_time()}, e);
}

void TelemetrySink::record_kernel_backend(std::string_view name) {
  metrics_.gauge("helios.kernel.backend", {{"backend", std::string(name)}})
      .set(1.0);
}

void TelemetrySink::flush() {
  if (tracer_) tracer_->close();
  if (journal_) journal_->close();
  if (flushed_ || config_.artifact_prefix.empty()) return;
  flushed_ = true;
  sample_process_memory(metrics_);
  const std::string& p = config_.artifact_prefix;
  // Artifacts are written atomically (temp + rename): a crash mid-flush —
  // or a dashboard scraping concurrently — never sees a half-written file.
  const auto write_atomic = [&](const char* suffix, auto&& emit) {
    std::ostringstream os;
    emit(os);
    util::atomic_write_file(p + suffix, os.str());
  };
  write_atomic(".metrics.json",
               [&](std::ostream& os) { metrics_.write_json(os); });
  write_atomic(".metrics.prom",
               [&](std::ostream& os) { metrics_.write_prometheus(os); });
  write_atomic(".dashboard.json",
               [&](std::ostream& os) { dashboard_.write_json(os); });
  write_atomic(".summary.json",
               [&](std::ostream& os) { dashboard_.write_summary_json(os); });
  if (trace_file_) trace_file_->flush();
  if (journal_file_) journal_file_->flush();
}

JournalPosition TelemetrySink::journal_position() {
  JournalPosition pos;
  if (!journal_) return pos;
  pos.events = journal_->event_count();
  if (journal_file_) {
    journal_file_->flush();
    const auto p = journal_file_->tellp();
    pos.byte_offset = p < 0 ? 0 : static_cast<std::uint64_t>(p);
  } else {
    pos.byte_offset = journal_buffer_.str().size();
  }
  return pos;
}

std::string TelemetrySink::trace_text() const { return trace_buffer_.str(); }

std::string TelemetrySink::journal_text() const {
  return journal_buffer_.str();
}

}  // namespace helios::obs
