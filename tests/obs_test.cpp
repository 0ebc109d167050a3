// Telemetry subsystem tests: histogram bucket boundaries, trace JSON
// well-formedness, the zero-allocation disabled path, and a golden 2-device
// Helios run whose dashboard must agree with the aggregation inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/helios_strategy.h"
#include "obs/metrics.h"
#include "obs/procstat.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "test_support.h"
#include "util/json.h"

// ---- Allocation counting for the disabled-path test --------------------
//
// The whole binary routes through these; the test only compares counts
// around the instrumented region. malloc/free keeps ASan's bookkeeping
// consistent when the suite runs sanitized.

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace helios {
namespace {

// ---- Histogram bucket boundaries ---------------------------------------

TEST(HistogramTest, DefaultBucketBoundaries) {
  obs::Histogram h;  // lowest 1e-6, growth 4, 20 finite buckets
  ASSERT_EQ(h.bucket_count(), 20U);
  EXPECT_DOUBLE_EQ(h.upper_bound(0), 1e-6);
  EXPECT_DOUBLE_EQ(h.upper_bound(1), 4e-6);
  EXPECT_DOUBLE_EQ(h.upper_bound(2), 1.6e-5);
  // Log-scale: each bound is growth x the previous one.
  for (std::size_t i = 1; i < h.bucket_count(); ++i) {
    EXPECT_NEAR(h.upper_bound(i) / h.upper_bound(i - 1), 4.0, 1e-9);
  }
}

TEST(HistogramTest, BucketIndexEdges) {
  obs::Histogram h(obs::HistogramOptions{1.0, 2.0, 4});  // bounds 1,2,4,8
  ASSERT_EQ(h.bucket_count(), 4U);
  // Bucket 0 is (-inf, lowest]; each bucket is half-open on the left.
  EXPECT_EQ(h.bucket_index(-3.0), 0U);
  EXPECT_EQ(h.bucket_index(0.0), 0U);
  EXPECT_EQ(h.bucket_index(1.0), 0U);
  EXPECT_EQ(h.bucket_index(1.5), 1U);
  EXPECT_EQ(h.bucket_index(2.0), 1U);
  EXPECT_EQ(h.bucket_index(2.0001), 2U);
  EXPECT_EQ(h.bucket_index(8.0), 3U);
  // Above the last finite bound: the +Inf overflow slot.
  EXPECT_EQ(h.bucket_index(8.5), h.bucket_count());
}

TEST(HistogramTest, ObserveCountsAndSum) {
  obs::Histogram h(obs::HistogramOptions{1.0, 2.0, 4});
  h.observe(0.5);
  h.observe(3.0);
  h.observe(3.0);
  h.observe(100.0);
  EXPECT_EQ(h.count(), 4U);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  EXPECT_EQ(h.bucket(0), 1U);
  EXPECT_EQ(h.bucket(2), 2U);
  EXPECT_EQ(h.bucket(h.bucket_count()), 1U);  // overflow
}

// ---- Metrics registry ----------------------------------------------------

TEST(MetricsRegistryTest, LabelOrderIsCanonical) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("helios.test", {{"x", "1"}, {"y", "2"}});
  obs::Counter& b = reg.counter("helios.test", {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&a, &b);
  obs::Counter& c = reg.counter("helios.test", {{"x", "1"}, {"y", "3"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.series_count(), 2U);
}

TEST(MetricsRegistryTest, PrometheusExport) {
  obs::MetricsRegistry reg;
  reg.counter("helios.cycles", {{"device", "0"}}).add(3);
  reg.gauge("helios.r_n", {{"device", "0"}}).set(0.35);
  reg.histogram("helios.lat", {}, obs::HistogramOptions{1.0, 2.0, 2})
      .observe(1.5);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE helios_cycles counter"), std::string::npos);
  EXPECT_NE(text.find("helios_cycles{device=\"0\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE helios_r_n gauge"), std::string::npos);
  // Histogram buckets are cumulative and end with +Inf / sum / count.
  EXPECT_NE(text.find("helios_lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("helios_lat_count 1"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusEmitsHelpAndEscapesLabelValues) {
  obs::MetricsRegistry reg;
  reg.counter("helios.odd", {{"path", "a\\b\"c\nd"}}).add(1);
  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  // HELP keeps the original dotted name next to the mangled family name.
  EXPECT_NE(text.find("# HELP helios_odd helios.odd"), std::string::npos);
  // Backslash, quote and newline in the label value are escaped per the
  // exposition format, so the line stays one line and parses.
  EXPECT_NE(text.find("helios_odd{path=\"a\\\\b\\\"c\\nd\"} 1"),
            std::string::npos);
}

TEST(ProcStatTest, ReportsProcessMemoryAndSetsGauges) {
  const obs::ProcMemory mem = obs::read_proc_memory();
  EXPECT_TRUE(mem.ok);
  EXPECT_GT(mem.peak_rss_mb, 0.0);
  obs::MetricsRegistry reg;
  obs::sample_process_memory(reg);
  EXPECT_GT(reg.gauge("helios.proc.rss_mb").value(), 0.0);
  EXPECT_GE(reg.gauge("helios.proc.peak_rss_mb").value(),
            reg.gauge("helios.proc.rss_mb").value());
}

TEST(StragglerDashboardTest, SummaryJsonMatchesFleetStats) {
  obs::StragglerDashboard dash;
  for (int d = 0; d < 40; ++d) {
    dash.update(d, [&](obs::DeviceStats& s) {
      s.straggler = d % 4 == 0;
      ++s.cycles;
      s.compute_seconds = d;
    });
  }
  std::ostringstream os;
  dash.write_summary_json(os);
  const util::JsonValue v = util::JsonValue::parse(os.str());
  EXPECT_EQ(v.number_or("devices", 0), 40.0);
  EXPECT_EQ(v.number_or("stragglers", 0), 10.0);
  EXPECT_EQ(v.number_or("cycles", 0), 40.0);
  const util::JsonValue* metrics = v.find("metrics");
  ASSERT_NE(metrics, nullptr);
  const util::JsonValue* compute = metrics->find("compute_seconds");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->number_or("max", 0), 39.0);
  EXPECT_GT(compute->number_or("p90", 0), compute->number_or("p50", -1.0));
}

// ---- Trace well-formedness ----------------------------------------------

/// Minimal structural JSON check: quotes pair up and brackets/braces
/// balance outside of strings.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

std::size_t count_occurrences(const std::string& s, const std::string& sub) {
  std::size_t n = 0;
  for (std::size_t pos = s.find(sub); pos != std::string::npos;
       pos = s.find(sub, pos + sub.size())) {
    ++n;
  }
  return n;
}

TEST(TraceWriterTest, ProducesParsableEventArray) {
  std::ostringstream os;
  {
    obs::TraceWriter w(os);
    w.name_process(1, "test");
    w.name_thread(7, "device-7", 2);
    {
      obs::TraceSpan outer(&w, "outer", {{"cycle", 3}});
      obs::TraceSpan inner(&w, "inner", {{"device", 1}, {"frac", 0.5}});
    }
    w.instant("marker", {{"note", "quote\"and\\slash"}});
    w.complete("train", 7, 1000.0, 250.0, {{"device", 7}});
    EXPECT_EQ(w.event_count(), 8U);  // 2 meta + 2 B + 2 E + i + X
    w.close();
  }
  const std::string text = os.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_NE(text.find("]"), std::string::npos);
  EXPECT_TRUE(json_balanced(text)) << text;
  // Durations pair up and the explicit phases all appear.
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"B\""), 2U);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"E\""), 2U);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"X\""), 1U);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"i\""), 1U);
  EXPECT_EQ(count_occurrences(text, "\"ph\":\"M\""), 2U);
  // Escaping kept the tricky instant argument inside one string.
  EXPECT_NE(text.find("quote\\\"and\\\\slash"), std::string::npos);
  // The complete event landed on the virtual-time process/track.
  EXPECT_NE(text.find("\"pid\":2,\"tid\":7"), std::string::npos);
}

TEST(TraceWriterTest, EventsAfterCloseAreDropped) {
  std::ostringstream os;
  obs::TraceWriter w(os);
  w.instant("kept", {});
  w.close();
  const std::string closed = os.str();
  w.instant("dropped", {});
  EXPECT_EQ(os.str(), closed);
  EXPECT_TRUE(json_balanced(closed));
}

// ---- Disabled path -------------------------------------------------------

TEST(TraceDisabledTest, SpanAllocatesNothingWithoutTracer) {
  ASSERT_EQ(obs::active_tracer(), nullptr);
  // Warm up anything lazy, then measure.
  for (int i = 0; i < 4; ++i) {
    HELIOS_TRACE_SPAN("disabled.warmup", {{"i", i}});
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 256; ++i) {
    HELIOS_TRACE_SPAN("disabled.span", {{"device", i}, {"frac", 0.25}});
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// ---- Golden 2-device Helios run -----------------------------------------

TEST(TelemetryGoldenTest, TwoDeviceDashboardIsConsistent) {
  testing::FleetOptions o;
  o.clients = 2;
  o.stragglers = 1;
  o.volume = 0.5;
  fl::Fleet fleet = testing::make_fleet(o);

  obs::TelemetrySink sink;  // no artifact prefix: trace stays in memory
  fleet.set_telemetry(&sink);

  core::HeliosConfig cfg;
  cfg.pace_adaptation_cycles = 0;  // keep the straggler volume fixed at 0.5
  const fl::RunResult result = core::HeliosStrategy(cfg).run(fleet, 3);
  fleet.set_telemetry(nullptr);
  sink.flush();

  ASSERT_EQ(result.rounds.size(), 3U);
  ASSERT_EQ(sink.dashboard().device_count(), 2U);

  const obs::DeviceStats capable = sink.dashboard().device(0);
  const obs::DeviceStats straggler = sink.dashboard().device(1);

  // Roles and cycle counts.
  EXPECT_FALSE(capable.straggler);
  EXPECT_TRUE(straggler.straggler);
  EXPECT_EQ(capable.cycles, 3);
  EXPECT_EQ(straggler.cycles, 3);

  // r_n: the capable device always trains the full model; the straggler a
  // proper submodel. The server-recorded fraction must equal the
  // client-side mask count over the model's neuron total.
  EXPECT_DOUBLE_EQ(capable.r_n, 1.0);
  EXPECT_GT(straggler.r_n, 0.0);
  EXPECT_LT(straggler.r_n, 1.0);
  ASSERT_GT(straggler.neuron_total, 0);
  EXPECT_NEAR(straggler.r_n,
              static_cast<double>(straggler.trained_neurons) /
                  static_cast<double>(straggler.neuron_total),
              1e-9);
  EXPECT_EQ(capable.trained_neurons, capable.neuron_total);

  // Aggregation shares sum to 1 across the cycle's participants, and the
  // straggler's Eq. 10 damping keeps its share below the capable one's.
  EXPECT_NEAR(capable.alpha_n + straggler.alpha_n, 1.0, 1e-9);
  EXPECT_LT(straggler.alpha_n, capable.alpha_n);

  // Rotation bookkeeping only tracks stragglers, and the skipped-cycle
  // histogram covers every neuron.
  EXPECT_EQ(capable.forced_neurons, 0);
  int cs_total = 0;
  for (int c : straggler.cs_hist) cs_total += c;
  EXPECT_EQ(cs_total, straggler.neuron_total);

  // Time split and upload volume were accumulated.
  EXPECT_GT(straggler.compute_seconds, 0.0);
  EXPECT_GT(straggler.comm_seconds, 0.0);
  EXPECT_GT(straggler.upload_mb, 0.0);
  EXPECT_LT(straggler.upload_mb, capable.upload_mb);

  // The in-memory trace is a loadable event array with instrumented spans.
  const std::string trace = sink.trace_text();
  EXPECT_TRUE(json_balanced(trace));
  EXPECT_NE(trace.find("client.run_cycle"), std::string::npos);
  EXPECT_NE(trace.find("server.aggregate"), std::string::npos);
  EXPECT_NE(trace.find("helios.select_submodels"), std::string::npos);

  // Dashboard JSON and the rendered table expose the r_n / alpha_n columns.
  std::ostringstream dash_json;
  sink.write_dashboard_json(dash_json);
  EXPECT_TRUE(json_balanced(dash_json.str()));
  EXPECT_NE(dash_json.str().find("\"r_n\""), std::string::npos);
  EXPECT_NE(dash_json.str().find("\"alpha_n\""), std::string::npos);
  std::ostringstream table;
  sink.render_dashboard(table);
  EXPECT_NE(table.str().find("r_n"), std::string::npos);
  EXPECT_NE(table.str().find("alpha_n"), std::string::npos);

  // Prometheus dump covers the per-device series.
  std::ostringstream prom;
  sink.write_metrics_prometheus(prom);
  EXPECT_NE(prom.str().find("helios_client_cycles_total"),
            std::string::npos);
  EXPECT_NE(prom.str().find("helios_server_r_n"), std::string::npos);
}

TEST(TelemetrySinkTest, CountersSurviveConcurrentClientUpdates) {
  // Fleet::parallel_train reports client cycles to the sink from pool
  // threads: hammer the sink from several threads and check nothing is
  // lost. Devices are registered sequentially first so dashboard order is
  // deterministic.
  obs::TelemetrySink sink;
  constexpr int kThreads = 4;
  constexpr int kIters = 250;
  for (int d = 0; d < kThreads; ++d) {
    sink.record_client_cycle(d, {"hammer", d % 2 == 1, 1.0, 24, 24, 0.5, 0.1,
                                 0.25, 1.0});
  }
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int d = 0; d < kThreads; ++d) {
    threads.emplace_back([&sink, d] {
      for (int i = 1; i < kIters; ++i) {
        sink.record_client_cycle(d, {"hammer", d % 2 == 1, 1.0, 24, 24, 0.5,
                                     0.1, 0.25, 1.0});
        sink.record_aggregation_weight(d, {0.5, 0.25});
        sink.record_cycle_result(i, static_cast<double>(i),
                                 {"hammer", 0.5, 1.0, 0.25});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  sink.flush();

  ASSERT_EQ(sink.dashboard().device_count(),
            static_cast<std::size_t>(kThreads));
  double upload_total = 0.0;
  for (int d = 0; d < kThreads; ++d) {
    const obs::DeviceStats stats = sink.dashboard().device(
        static_cast<std::size_t>(d));
    EXPECT_EQ(stats.cycles, kIters) << "device " << d;
    upload_total += stats.upload_mb;
  }
  EXPECT_NEAR(upload_total, 0.25 * kThreads * kIters, 1e-9);

  // Exports stay parsable after the concurrent run.
  std::ostringstream prom;
  sink.write_metrics_prometheus(prom);
  EXPECT_NE(prom.str().find("helios_client_cycles_total"),
            std::string::npos);
}

TEST(TelemetrySinkTest, InstallUninstallTracksGlobalState) {
  ASSERT_EQ(obs::active_tracer(), nullptr);
  {
    obs::TelemetrySink sink;
    sink.install();
    EXPECT_EQ(obs::active_tracer(), sink.tracer());
    EXPECT_EQ(obs::global_sink(), &sink);
    sink.uninstall();
    EXPECT_EQ(obs::active_tracer(), nullptr);
    EXPECT_EQ(obs::global_sink(), nullptr);
  }
  EXPECT_EQ(obs::active_tracer(), nullptr);
}

}  // namespace
}  // namespace helios
