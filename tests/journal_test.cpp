// Run-journal (flight recorder) tests: schema stability of the JSONL
// stream, write -> parse -> replay round trips whose summaries are
// bit-identical across thread counts, the zero-allocation disabled path,
// the 256-device long-tail churn acceptance run whose replayed dashboard
// artifacts must match the live ones byte for byte, and hostile journals
// (out-of-range numbers, a mutation sweep over the committed fixture,
// nesting bombs), which must read and render or throw std::runtime_error.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/helios_strategy.h"
#include "obs/journal.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "sim/churn.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// ---- Allocation counting for the disabled-path test --------------------
// Same global-override pattern as obs_test.cpp: the test compares counts
// around the instrumented region only.
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

/// A dashboard's rendering and JSON artifacts, concatenated.
std::string views(const obs::StragglerDashboard& d) {
  std::ostringstream os;
  d.render(os);
  d.write_json(os);
  d.write_summary_json(os);
  return os.str();
}

struct RunArtifacts {
  std::string journal;
  std::string dashboard;  // the live run's views()
};

/// A short Helios run over the small test fleet, journal in memory.
RunArtifacts run_with_threads(int threads) {
  util::set_global_threads(threads);
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&sink);
  core::HeliosStrategy strategy;
  strategy.run(fleet, 3);
  fleet.set_telemetry(nullptr);
  sink.flush();  // closes the journal (run_end)
  RunArtifacts a;
  a.journal = sink.journal_text();
  a.dashboard = views(sink.dashboard());
  util::set_global_threads(0);
  return a;
}

// ---- Round trip + thread-count invariance -------------------------------

TEST(RunJournalTest, RoundTripSummaryIsBitIdenticalAcrossThreadCounts) {
  const RunArtifacts one = run_with_threads(1);
  const RunArtifacts four = run_with_threads(4);

  std::istringstream is1(one.journal), is4(four.journal);
  const std::vector<obs::JournalEvent> ev1 = obs::read_journal(is1);
  const std::vector<obs::JournalEvent> ev4 = obs::read_journal(is4);
  ASSERT_FALSE(ev1.empty());
  // Same events, possibly interleaved differently across devices.
  EXPECT_EQ(ev1.size(), ev4.size());

  // Summaries aggregate per device before comparing, so they must agree on
  // every compared field (the diff ignores wall clock, which always varies).
  obs::JournalSummary s1 = obs::summarize_journal(ev1);
  obs::JournalSummary s4 = obs::summarize_journal(ev4);
  std::ostringstream diff;
  EXPECT_EQ(obs::write_diff(diff, s1, s4), 0) << diff.str();

  // Rendering the summaries (wall clock zeroed) is bit-identical.
  s1.wall_seconds = s4.wall_seconds = 0.0;
  std::ostringstream t1, t4, j1, j4;
  obs::write_summary(t1, s1);
  obs::write_summary(t4, s4);
  EXPECT_EQ(t1.str(), t4.str());
  obs::write_summary_json(j1, s1);
  obs::write_summary_json(j4, s4);
  EXPECT_EQ(j1.str(), j4.str());

  // And replaying either journal reconstructs its live dashboard exactly:
  // the rendering, write_json and write_summary_json.
  obs::StragglerDashboard d1, d4;
  obs::replay_dashboard(ev1, d1);
  obs::replay_dashboard(ev4, d4);
  EXPECT_EQ(views(d1), one.dashboard);
  EXPECT_EQ(views(d4), four.dashboard);
}

// ---- Schema stability ---------------------------------------------------

TEST(RunJournalTest, SchemaV1FieldsAreStable) {
  ASSERT_EQ(obs::RunJournal::kSchemaVersion, 1);
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);
  ASSERT_NE(sink.journal(), nullptr);

  sink.set_cycle(2);
  sink.set_virtual_time(1.5);
  sink.record_cohort(2, {64, 60, 6});
  sink.record_device_skipped(2, 9, {"hollow"});
  sink.record_device_skipped(2, 10, {"dead"});
  sink.record_client_cycle(3, {"jetson", true, 0.4, 10, 24, 2.0, 0.5, 1.25,
                               0.7});
  sink.record_aggregation_weight(3, {0.4167, 0.21});
  sink.record_rotation(3, {2, 20, 3, 1, 0});
  sink.record_device_transfer(3, {4096, 2, 1, true, false, false, 0.6});
  sink.record_network_round({8192, 4, 3, 1, 1, 0, 0});
  sink.record_churn(2, {1, 2, 63});
  sink.record_cycle_result(2, 1.5, {"Helios", 0.81, 0.42, 2.5});
  sink.flush();

  std::istringstream is(sink.journal_text());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  ASSERT_GE(events.size(), 12U);  // run_start + 10 recorded + run_end

  // Every line carries the stamp fields.
  for (const obs::JournalEvent& ev : events) {
    EXPECT_NE(ev.fields.find("v"), nullptr);
    EXPECT_NE(ev.fields.find("t"), nullptr);
    EXPECT_NE(ev.fields.find("r"), nullptr);
    EXPECT_NE(ev.fields.find("dev"), nullptr);
    EXPECT_NE(ev.fields.find("vt"), nullptr);
    EXPECT_NE(ev.fields.find("w"), nullptr);
  }
  EXPECT_EQ(events.front().type, "run_start");
  EXPECT_EQ(events.back().type, "run_end");
  EXPECT_EQ(events.back().fields.number_or("events", 0.0),
            static_cast<double>(events.size()));

  auto find = [&](const std::string& type) -> const obs::JournalEvent* {
    for (const obs::JournalEvent& ev : events) {
      if (ev.type == type) return &ev;
    }
    return nullptr;
  };
  const obs::JournalEvent* cohort = find("cohort");
  ASSERT_NE(cohort, nullptr);
  EXPECT_EQ(cohort->fields.number_or("pop", 0), 64.0);
  EXPECT_EQ(cohort->fields.number_or("act", 0), 60.0);
  EXPECT_EQ(cohort->fields.number_or("sam", 0), 6.0);

  const obs::JournalEvent* train = find("train");
  ASSERT_NE(train, nullptr);
  EXPECT_EQ(train->device, 3);
  EXPECT_EQ(train->round, 2);
  EXPECT_EQ(train->fields.string_or("prof", ""), "jetson");
  EXPECT_EQ(train->fields.number_or("strag", 0), 1.0);
  EXPECT_EQ(train->fields.number_or("vol", 0), 0.4);
  EXPECT_EQ(train->fields.number_or("mask", 0), 10.0);
  EXPECT_EQ(train->fields.number_or("tot", 0), 24.0);
  EXPECT_EQ(train->fields.number_or("train_s", 0), 2.0);
  EXPECT_EQ(train->fields.number_or("up_s", 0), 0.5);
  EXPECT_EQ(train->fields.number_or("up_mb", 0), 1.25);
  EXPECT_EQ(train->fields.number_or("loss", 0), 0.7);

  const obs::JournalEvent* xfer = find("xfer");
  ASSERT_NE(xfer, nullptr);
  EXPECT_EQ(xfer->fields.number_or("bytes", 0), 4096.0);
  EXPECT_EQ(xfer->fields.number_or("tx", 0), 2.0);
  EXPECT_EQ(xfer->fields.number_or("lost", 0), 1.0);
  EXPECT_EQ(xfer->fields.number_or("ok", 0), 1.0);
  EXPECT_EQ(xfer->fields.number_or("miss", 1), 0.0);
  EXPECT_EQ(xfer->fields.number_or("dead", 1), 0.0);

  const obs::JournalEvent* net = find("net_round");
  ASSERT_NE(net, nullptr);
  EXPECT_EQ(net->fields.number_or("n", 0), 4.0);
  EXPECT_EQ(net->fields.number_or("okn", 0), 3.0);
  EXPECT_EQ(net->fields.number_or("renorm", 0), 1.0);  // 3 < 4 participants

  const obs::JournalEvent* round = find("round");
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->fields.string_or("strat", ""), "Helios");
  EXPECT_EQ(round->fields.number_or("acc", 0), 0.81);

  // Skip events carry the reason, and the counter is labeled to match.
  int hollow = 0, dead = 0;
  for (const obs::JournalEvent& ev : events) {
    if (ev.type != "skip") continue;
    if (ev.fields.string_or("why", "") == "hollow") ++hollow;
    if (ev.fields.string_or("why", "") == "dead") ++dead;
  }
  EXPECT_EQ(hollow, 1);
  EXPECT_EQ(dead, 1);
  EXPECT_EQ(sink.metrics()
                .counter("helios.sim.skipped_total", {{"reason", "hollow"}})
                .value(),
            1.0);
  EXPECT_EQ(sink.metrics()
                .counter("helios.sim.skipped_total", {{"reason", "dead"}})
                .value(),
            1.0);
}

TEST(RunJournalTest, UnsupportedSchemaVersionIsRejected) {
  std::istringstream is(
      "{\"v\":99,\"t\":\"run_start\",\"r\":-1,\"dev\":-1,\"vt\":0,\"w\":0}\n");
  EXPECT_THROW(obs::read_journal(is), std::runtime_error);
  std::istringstream garbage("{not json\n");
  EXPECT_THROW(obs::read_journal(garbage), std::runtime_error);
}

// ---- Disabled path ------------------------------------------------------

TEST(RunJournalTest, DisabledJournalMakesNoAllocations) {
  // TelemetryConfig::journal = false leaves the sink without a journal.
  obs::TelemetrySink plain;
  EXPECT_EQ(plain.journal(), nullptr);
  EXPECT_TRUE(plain.journal_text().empty());

  // A null-stream journal's record methods return after one branch.
  obs::RunJournal off(nullptr);
  EXPECT_FALSE(off.enabled());
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 64; ++i) {
    off.record({i, -1, 0.0}, obs::CohortEvent{64, 60, 6});
    off.record({i, 1, 0.0}, obs::SkipEvent{"hollow"});
    off.record({i, 1, 0.0}, obs::TrainEvent{"profile", false, 1.0, 24, 24,
                                            1.0, 0.1, 0.5, 0.9});
    off.record({i, 1, 0.0},
               obs::TransferEvent{2048, 1, 0, true, false, false, 0.1});
    off.record({i, 1, 0.0}, obs::AggEvent{0.5, 0.25});
    off.record({i, 1, 0.0}, obs::RotationEvent{1, 20, 2, 1, 1});
    off.record({i, -1, 0.0},
               obs::NetRoundEvent{8192, 4, 4, 0, 0, 0, 0, false});
    off.record({i, -1, 0.0}, obs::ChurnEvent{0, 1, 63});
    off.record({i, -1, 0.0}, obs::RoundEvent{"Helios", 0.8, 0.4, 2.0});
  }
  off.close();
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
  EXPECT_EQ(off.event_count(), 0U);
}

// ---- Artifact files -----------------------------------------------------

TEST(RunJournalTest, ArtifactPrefixWritesJournalAndSummaryFiles) {
  const std::string prefix = ::testing::TempDir() + "journal_artifacts";
  {
    obs::TelemetryConfig cfg;
    cfg.tracing = false;
    cfg.journal = true;
    cfg.artifact_prefix = prefix;
    obs::TelemetrySink sink(cfg);
    fl::Fleet fleet = testing::make_fleet();
    fleet.set_telemetry(&sink);
    core::HeliosStrategy strategy;
    strategy.run(fleet, 2);
    fleet.set_telemetry(nullptr);
    sink.flush();
  }
  std::ifstream journal(prefix + ".journal.jsonl");
  ASSERT_TRUE(journal.good());
  const std::vector<obs::JournalEvent> events = obs::read_journal(journal);
  EXPECT_GT(events.size(), 10U);
  EXPECT_EQ(events.back().type, "run_end");

  // flush() also writes the dashboard percentile summary and samples the
  // process RSS gauges.
  std::ifstream summary(prefix + ".summary.json");
  ASSERT_TRUE(summary.good());
  std::ostringstream buf;
  buf << summary.rdbuf();
  const util::JsonValue v = util::JsonValue::parse(buf.str());
  EXPECT_EQ(v.number_or("devices", 0.0), 4.0);
  EXPECT_NE(v.find("metrics"), nullptr);
}

// ---- Acceptance: 256-device long-tail churn run -------------------------

TEST(RunJournalTest, LongtailChurnRunReplaysToLiveDashboard) {
  const int kDevices = 256;
  const int kCycles = 3;
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink telemetry(cfg);
  const sim::PopulationGenerator pop(sim::mobile_longtail(kDevices));
  fl::Fleet fleet = sim::build_fleet(pop);
  fleet.set_telemetry(&telemetry);

  sim::CohortSampler::Options sopts;
  sopts.fraction = 4.0 / kDevices;
  sopts.seed = 17;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  sim::ChurnOptions copts;
  copts.arrival_rate_per_s = 30.0;
  copts.mean_lifetime_s = 2.0;
  copts.seed = 7;
  copts.max_devices = kDevices + 16;
  sim::ChurnProcess churn(pop, copts);
  core::HeliosStrategy strategy;
  strategy.set_cycle_hook(
      [&](fl::Fleet& f, int cycle) { churn.step(f, cycle); });

  strategy.run(fleet, kCycles);
  fleet.set_sampler(nullptr);
  fleet.set_telemetry(nullptr);
  telemetry.flush();

  // Parseable JSONL end to end (read_journal throws on a malformed line).
  std::istringstream is(telemetry.journal_text());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  ASSERT_GT(events.size(), static_cast<std::size_t>(kDevices));

  // Every round journals its cohort, and unsampled devices journal skips —
  // the whole population appears in the event stream.
  std::set<int> seen;
  int cohorts = 0;
  for (const obs::JournalEvent& ev : events) {
    if (ev.type == "cohort") ++cohorts;
    if (ev.device >= 0) seen.insert(ev.device);
  }
  EXPECT_EQ(cohorts, kCycles);
  EXPECT_GE(seen.size(), static_cast<std::size_t>(kDevices));

  // The replayed dashboard renders the same fleet percentile summary the
  // live run shows, and writes the same per-device and summary JSON.
  obs::StragglerDashboard replayed;
  obs::replay_dashboard(events, replayed);
  EXPECT_EQ(views(replayed), views(telemetry.dashboard()));

  // And the journal summary agrees with the live skip accounting.
  const obs::JournalSummary s = obs::summarize_journal(events);
  double skipped = 0.0;
  for (const auto& [id, d] : s.devices) {
    skipped += d.skipped_hollow + d.skipped_dead;
  }
  const double live_skips =
      telemetry.metrics()
          .counter("helios.sim.skipped_total", {{"reason", "hollow"}})
          .value() +
      telemetry.metrics()
          .counter("helios.sim.skipped_total", {{"reason", "dead"}})
          .value();
  EXPECT_EQ(skipped, live_skips);
}

// ---- Hostile journals ------------------------------------------------

/// Reads `text`, summarizes and replays it, and renders every view.
void read_and_render(const std::string& text) {
  std::istringstream is(text);
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  const obs::JournalSummary s = obs::summarize_journal(events);
  std::ostringstream out;
  obs::write_summary(out, s);
  obs::write_summary_json(out, s);
  obs::write_diff(out, s, s);
  obs::StragglerDashboard dash;
  obs::replay_dashboard(events, dash);
  out << views(dash);
  dash.set_summary_threshold(0);
  dash.render(out);
}

/// `read_and_render(text)` throws std::runtime_error naming line `line`.
void expect_rejected(const std::string& text, int line) {
  try {
    read_and_render(text);
    ADD_FAILURE() << "accepted: " << text;
  } catch (const std::runtime_error& e) {
    const std::string where = "journal line " + std::to_string(line) + ":";
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos)
        << e.what();
  }
}

constexpr char kRunStart[] =
    "{\"v\":1,\"t\":\"run_start\",\"r\":-1,\"dev\":-1,\"vt\":0,\"w\":0,"
    "\"schema\":1}\n";

TEST(HostileJournalTest, OutOfRangeNumbersAreRejected) {
  const std::string start = kRunStart;
  // A device id past int and a round id whose successor overflows.
  expect_rejected(start + "{\"v\":1,\"t\":\"train\",\"r\":0,\"dev\":1e12,"
                          "\"vt\":0,\"w\":0}\n",
                  2);
  expect_rejected(start + "{\"v\":1,\"t\":\"round\",\"r\":2147483647,"
                          "\"dev\":-1,\"vt\":0,\"w\":0,\"strat\":\"x\","
                          "\"acc\":0.5,\"loss\":1,\"up_mb\":1}\n",
                  2);
  // A schema version far outside int.
  expect_rejected("{\"v\":1e300,\"t\":\"run_start\"}\n", 1);
  // Field values: a count past int, a negative byte count, a bool that is
  // not 0/1, a fraction where an integer belongs, an infinite double, a
  // string where a number belongs.
  for (const char* field :
       {"\"tx\":1e10", "\"bytes\":-1", "\"ok\":2", "\"lost\":0.5",
        "\"comm_s\":1e999", "\"tx\":\"2\""}) {
    expect_rejected(start + "{\"v\":1,\"t\":\"xfer\",\"r\":0,\"dev\":3,"
                            "\"vt\":0,\"w\":0," +
                        field + "}\n",
                    2);
  }
  // A non-string profile.
  expect_rejected(start + "{\"v\":1,\"t\":\"train\",\"r\":0,\"dev\":3,"
                          "\"vt\":0,\"w\":0,\"prof\":3}\n",
                  2);
}

TEST(HostileJournalTest, ExtremeInRangeCountsDoNotOverflowTheFolds) {
  // Counts at the top of their ranges, repeated: every total saturates or
  // widens instead of overflowing (UBSan makes an overflow fatal).
  std::string text = kRunStart;
  for (int i = 0; i < 4; ++i) {
    text += "{\"v\":1,\"t\":\"xfer\",\"r\":0,\"dev\":3,\"vt\":0,\"w\":0,"
            "\"bytes\":9007199254740992,\"tx\":2147483647,"
            "\"lost\":-2147483648,\"ok\":0,\"miss\":1,\"dead\":1,"
            "\"comm_s\":1e308}\n";
    text += "{\"v\":1,\"t\":\"xfer\",\"r\":0,\"dev\":3,\"vt\":0,\"w\":0,"
            "\"tx\":-2147483648}\n";
    text += "{\"v\":1,\"t\":\"codec\",\"r\":0,\"dev\":3,\"vt\":0,\"w\":0,"
            "\"in\":0,\"out\":9007199254740992}\n";
    text += "{\"v\":1,\"t\":\"merge\",\"r\":0,\"dev\":-1,\"vt\":0,\"w\":0,"
            "\"tier\":\"edge\",\"frames\":9007199254740992,"
            "\"bytes\":9007199254740992,\"raw\":9007199254740992,"
            "\"miss\":2147483647,\"retx\":2147483647,\"lost\":2147483647}\n";
    text += "{\"v\":1,\"t\":\"churn\",\"r\":2147483646,\"dev\":-1,"
            "\"vt\":0,\"w\":0,\"in\":2147483647,\"out\":2147483647}\n";
    text += "{\"v\":1,\"t\":\"round\",\"r\":2147483646,\"dev\":-1,"
            "\"vt\":1e308,\"w\":1e308,\"strat\":\"x\"}\n";
  }
  EXPECT_NO_THROW(read_and_render(text));
}

TEST(HostileJournalTest, NonFiniteTotalsWriteJsonNull) {
  // Two finite train times whose sum overflows to +inf: the summary JSON and
  // both dashboard JSON artifacts stay parseable, with null in its place.
  std::string text = kRunStart;
  for (int i = 0; i < 2; ++i) {
    text += "{\"v\":1,\"t\":\"train\",\"r\":0,\"dev\":7,\"vt\":0,\"w\":0,"
            "\"train_s\":1e308}\n";
  }
  std::istringstream is(text);
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);

  std::ostringstream summary;
  obs::write_summary_json(summary, obs::summarize_journal(events));
  const util::JsonValue s = util::JsonValue::parse(summary.str());
  const util::JsonValue& device = s.find("per_device")->items().at(0);
  EXPECT_TRUE(device.find("compute_seconds")->is_null()) << summary.str();
  EXPECT_EQ(device.find("comm_seconds")->as_number(), 0.0);

  obs::StragglerDashboard dash;
  obs::replay_dashboard(events, dash);
  std::ostringstream devices;
  dash.write_json(devices);
  const util::JsonValue d = util::JsonValue::parse(devices.str());
  EXPECT_TRUE(d.items().at(0).find("compute_seconds")->is_null())
      << devices.str();
  std::ostringstream fleet;
  dash.write_summary_json(fleet);
  const util::JsonValue f = util::JsonValue::parse(fleet.str());
  const util::JsonValue* compute = f.find("metrics")->find("compute_seconds");
  EXPECT_TRUE(compute->find("mean")->is_null()) << fleet.str();
}

/// One deterministic mutant of `text`: a bit flip, a truncation, an extreme
/// number in place of one of the text's numbers, or a splice of two lines.
std::string mutate(const std::string& text, util::Rng& rng) {
  static const char* const kExtremes[] = {
      "1e300", "-1e300", "1e999", "2147483647", "-2147483648", "2147483648",
      "9007199254740993", "-1", "0.5", "-0", "4294967296"};
  std::string m = text;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  switch (pick(4)) {
    case 0:
      m[pick(m.size())] ^= static_cast<char>(1U << pick(8));
      break;
    case 1:
      m.resize(pick(m.size()));
      break;
    case 2: {
      std::size_t at = pick(m.size());
      while (at < m.size() && (m[at] < '0' || m[at] > '9')) ++at;
      std::size_t end = at;
      while (end < m.size() &&
             std::string_view("0123456789.e-+").find(m[end]) !=
                 std::string_view::npos) {
        ++end;
      }
      m.replace(at, end - at, kExtremes[pick(std::size(kExtremes))]);
      break;
    }
    default: {
      // The head of one line joined to the tail of another.
      const std::size_t a = m.rfind('\n', pick(m.size()));
      const std::size_t b = m.find('\n', pick(m.size()));
      if (a != std::string::npos && b != std::string::npos) {
        m = m.substr(0, a + 1 + pick(40)) + m.substr(b - std::min(b, pick(40)));
      }
      break;
    }
  }
  return m;
}

TEST(HostileJournalTest, MutatedFixtureReadsAndRendersOrThrows) {
  std::ifstream is(HELIOS_JOURNAL_FIXTURE, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string fixture = buf.str();
  ASSERT_FALSE(fixture.empty());
  util::Rng rng(0x7E57);
  int rejected = 0;
  constexpr int kMutants = 600;
  for (int i = 0; i < kMutants; ++i) {
    const std::string m = mutate(fixture, rng);
    try {
      read_and_render(m);
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  // Both outcomes occur: the sweep reaches the renderers and the checks.
  EXPECT_GT(rejected, 0);
  EXPECT_LT(rejected, kMutants);
}

TEST(JsonValueTest, NestingPastTheCapThrows) {
  const auto nest = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const int cap = util::JsonValue::kMaxDepth;
  EXPECT_NO_THROW(util::JsonValue::parse(nest(cap)));
  EXPECT_NO_THROW(util::JsonValue::parse("{\"a\":" + nest(cap - 1) + "}"));
  EXPECT_THROW(util::JsonValue::parse(nest(cap + 1)), std::runtime_error);
  EXPECT_THROW(util::JsonValue::parse(nest(100000)), std::runtime_error);
  try {
    util::JsonValue::parse(nest(100000));
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at byte 64"), std::string::npos)
        << e.what();
  }
  // A journal line nested that deep is a malformed line.
  std::istringstream journal(nest(100000) + "\n");
  EXPECT_THROW(obs::read_journal(journal), std::runtime_error);
}

}  // namespace
}  // namespace helios
