// TelemetrySink — the one handle a run needs for observability.
//
// Bundles the four pillars:
//   * MetricsRegistry   — counters / gauges / histograms, exported as JSON
//                         and Prometheus text,
//   * TraceWriter       — Chrome trace_event JSONL (chrome://tracing,
//                         Perfetto), wall-clock spans + a virtual-time
//                         device Gantt,
//   * StragglerDashboard — the per-device r_n / alpha_n / rotation / time
//                         split table,
//   * RunJournal        — the flight recorder: an append-only JSONL event
//                         stream of every round's lifecycle (opt-in via
//                         TelemetryConfig::journal; see obs/journal.h and
//                         the `helios-journal` CLI).
//
// Opt-in is one line: construct a sink and hand it to the fleet —
//
//   obs::TelemetrySink telemetry(obs::TelemetryConfig{.artifact_prefix =
//                                                     "helios_run"});
//   fleet.set_telemetry(&telemetry);
//   ...
//   telemetry.flush();   // writes <prefix>.trace.json/.metrics.json/
//                        // .metrics.prom/.dashboard.json
//
// Fleet::set_telemetry installs the sink globally so the HELIOS_TRACE_SPAN
// macros in the nn kernels and strategies see it. With no sink installed,
// every instrumentation point reduces to a relaxed atomic load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "obs/dashboard.h"
#include "obs/journal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace helios::obs {

/// A journal position for checkpointing: the durable byte offset of the
/// journal file and the number of events committed so far.
struct JournalPosition {
  std::uint64_t byte_offset = 0;
  std::uint64_t events = 0;
};

struct TelemetryConfig {
  /// Emit trace events (spans, instants, virtual-time Gantt).
  bool tracing = true;
  /// Record the run journal (flight recorder, obs/journal.h). With an
  /// artifact prefix it lands in <prefix>.journal.jsonl; without one it
  /// accumulates in memory (see journal_text()). Off by default: every
  /// record call then reduces to a null-pointer branch.
  bool journal = false;
  /// When non-empty, artifacts land in <prefix>.trace.json,
  /// <prefix>.metrics.json, <prefix>.metrics.prom, <prefix>.dashboard.json,
  /// <prefix>.summary.json and (with journal) <prefix>.journal.jsonl.
  /// When empty, the trace accumulates in memory (see trace_text()).
  std::string artifact_prefix;
  /// Checkpoint/resume continuation of an existing <prefix>.journal.jsonl:
  /// when set, the file is truncated to its byte offset (discarding any
  /// partial tail from the crashed process), reopened in append mode, and
  /// the journal continues counting from its event count with no new
  /// run_start line — so the resumed file reads as ONE uninterrupted run.
  /// The position comes from the checkpoint (fl::peek_checkpoint).
  std::optional<JournalPosition> journal_resume;
};

class TelemetrySink {
 public:
  TelemetrySink() : TelemetrySink(TelemetryConfig{}) {}
  explicit TelemetrySink(TelemetryConfig config);
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  StragglerDashboard& dashboard() { return dashboard_; }
  TraceWriter* tracer() { return tracer_.get(); }
  /// The run journal (nullptr when TelemetryConfig::journal is off).
  RunJournal* journal() { return journal_.get(); }

  /// Makes this sink the process-global one: HELIOS_TRACE_SPAN targets its
  /// tracer and util::log lines gain cycle/device context. Fleet calls this
  /// from set_telemetry; idempotent.
  void install();
  /// Clears the global hooks if they point at this sink.
  void uninstall();

  /// Simulation time, attached to trace events and the run gauges. The
  /// strategies set it as their cycle loop advances the fleet clock.
  void set_virtual_time(double seconds);
  double virtual_time() const {
    return virtual_time_.load(std::memory_order_relaxed);
  }

  /// Log-context fields (shown on every util::log line while installed).
  void set_cycle(int cycle) {
    cycle_.store(cycle, std::memory_order_relaxed);
  }
  void set_device(int device) {
    device_.store(device, std::memory_order_relaxed);
  }

  // ---- Recorders called from the instrumented layers ----
  //
  // Each takes its journal event (obs/journal.h), updates the metrics,
  // folds device-level events into the dashboard, and journals the event
  // stamped with the current cycle (or the explicit round) and the virtual
  // clock.

  /// Client::record_cycle (a finished cycle): helios.client.* metrics, the
  /// dashboard's client-side columns, and the cycle's train + upload slabs
  /// on the virtual-time Gantt track.
  void record_client_cycle(int device, const TrainEvent& e);

  /// Server::aggregate per-update weights (Eq. 10).
  void record_aggregation_weight(int device, const AggEvent& e);

  /// Rotation regulation snapshot.
  void record_rotation(int device, const RotationEvent& e);

  /// One strategy cycle completed (accuracy evaluated) at `virtual_time`.
  void record_cycle_result(int cycle, double virtual_time,
                           const RoundEvent& e);

  /// One device's upload transfer across the simulated network.
  void record_device_transfer(int device, const TransferEvent& e);

  /// One synchronous round's network totals; the journal's `renorm` is
  /// derived here from `delivered < participants`.
  void record_network_round(NetRoundEvent e);

  /// One quantized upload encode (src/codec): the helios.codec.* metrics,
  /// the dashboard's bytes-saved column, and the journal's "codec" event.
  void record_codec(int device, const CodecEvent& e);

  /// One aggregator-tree tier's rollup for the round: the helios.agg.*
  /// counters labeled {tier=<name>}, the dashboard's per-tier breakdown, and
  /// the journal's "merge" event.
  void record_tier_merge(const MergeEvent& e);

  /// One round's cohort draw (population-scale simulation).
  void record_cohort(int round, const CohortEvent& e);

  /// Churn applied to the fleet around round `round`.
  void record_churn(int round, const ChurnEvent& e);

  /// A device sitting round `round` out.
  void record_device_skipped(int round, int device, const SkipEvent& e);

  /// Which SIMD kernel backend the tensor layer dispatched to at startup
  /// ("scalar", "avx2", ...). Exported as the gauge
  /// `helios.kernel.backend{backend=<name>}` = 1 so dashboards can tell
  /// runs on different hardware (or HELIOS_KERNEL_BACKEND overrides) apart.
  void record_kernel_backend(std::string_view name);

  // ---- Exports ----

  void write_metrics_json(std::ostream& os) const { metrics_.write_json(os); }
  void write_metrics_prometheus(std::ostream& os) const {
    metrics_.write_prometheus(os);
  }
  void write_dashboard_json(std::ostream& os) const {
    dashboard_.write_json(os);
  }
  void render_dashboard(std::ostream& os) const { dashboard_.render(os); }

  /// Closes the trace and journal, samples the process RSS gauges one last
  /// time, and — when an artifact prefix is configured — writes the
  /// metrics / dashboard / summary files. Safe to call more than once.
  void flush();

  /// In-memory trace contents (only when no artifact prefix was given).
  std::string trace_text() const;
  /// In-memory journal contents (only when no artifact prefix was given).
  std::string journal_text() const;

  /// Current journal position for checkpointing (the journal file is
  /// flushed first); {0, 0} when the journal is off. A checkpoint stores it
  /// so a resumed process can truncate the file past any torn tail and
  /// continue the event stream exactly where the snapshot left it.
  JournalPosition journal_position();

 private:
  /// Stamps shared by every journal event: current cycle as the round id
  /// plus the virtual clock. The journal is only consulted when non-null.
  RunJournal::Stamp journal_stamp(int device) const {
    return RunJournal::Stamp{cycle_.load(std::memory_order_relaxed), device,
                             virtual_time()};
  }

  TelemetryConfig config_;
  MetricsRegistry metrics_;
  StragglerDashboard dashboard_;
  std::unique_ptr<std::ofstream> trace_file_;
  std::ostringstream trace_buffer_;
  std::unique_ptr<TraceWriter> tracer_;
  std::unique_ptr<std::ofstream> journal_file_;
  std::ostringstream journal_buffer_;
  std::unique_ptr<RunJournal> journal_;
  std::atomic<double> virtual_time_{0.0};
  std::atomic<int> cycle_{-1};
  std::atomic<int> device_{-1};
  bool flushed_ = false;
};

/// Globally installed sink (nullptr when telemetry is off). Deep layers
/// that cannot be handed a sink explicitly read this.
TelemetrySink* global_sink();

}  // namespace helios::obs
