// Cross-commit pins for the run journal and every view over it.
//
//   * JournalDigestTest: FNV-1a of the journal text of a Helios run over a
//     lazy, sampled mobile_longtail(64) fleet with churn, a 2-edge
//     aggregator tree and a 5%-loss int8pn + error-feedback session — every
//     event type in one run. The wall-clock values ("w" and "fold_s") are
//     blanked to 0. Pinned at 1 and 4 threads on the scalar backend.
//   * JournalFixtureTest: that journal, committed as
//     tests/data/longtail_tree_journal.jsonl, and FNV-1a pins of every view
//     over it: write_summary, write_summary_json, write_diff against
//     itself, and the replayed dashboard's per-device render, fleet render,
//     write_json and write_summary_json.
//
// The constants were recorded against commit d2eb30a, before the journal's
// events became one struct each. They are never re-recorded to make a
// change pass: a mismatch means a journal line or a rendered view changed.
// A mismatch prints the new value.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/helios_strategy.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/hierarchy.h"
#include "fl/transport.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "sim/churn.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "tensor/backend/dispatch.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

constexpr std::uint64_t kJournalDigest = 0xbc0bd782870e7826ULL;

std::uint64_t text_digest(std::string_view text) {
  return testing::fnv1a(std::span(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Sets every "w" and "fold_s" value to 0: both are wall clock.
std::string blank_wall_clock(const std::string& journal) {
  std::string out;
  std::size_t i = 0;
  while (i < journal.size()) {
    std::size_t at = std::string::npos;
    std::size_t key_len = 0;
    for (const std::string_view key : {",\"w\":", ",\"fold_s\":"}) {
      const std::size_t p = journal.find(key, i);
      if (p < at) {
        at = p;
        key_len = key.size();
      }
    }
    if (at == std::string::npos) {
      out.append(journal, i);
      break;
    }
    out.append(journal, i, at + key_len - i);
    out += '0';
    i = journal.find_first_of(",}", at + key_len);
  }
  return out;
}

struct LiveRun {
  std::string journal;         // raw, wall clock included
  std::string dashboard_json;  // the live sink's artifacts
  std::string summary_json;
  std::string render;
};

/// The pinned run: Helios, 4 cycles, at `threads` pool threads.
LiveRun longtail_tree_run(int threads) {
  util::set_global_threads(threads);
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink sink(cfg);

  sim::PopulationConfig pc = sim::mobile_longtail(64);
  pc.lazy_data = true;
  const sim::PopulationGenerator pop(pc);
  fl::Fleet fleet = sim::build_fleet(pop);
  fleet.set_telemetry(&sink);
  const core::StragglerReport report =
      core::StragglerIdentifier::time_based(fleet, /*top_k=*/16);
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  agg::TreeTopology topo;
  topo.edge_nodes = 2;
  topo.edge_link.loss_prob = 0.05;
  topo.edge_link.latency_s = 0.005;
  topo.edge_deadline_s = 4000.0;
  fl::HierarchySession hier(fleet, topo);

  net::NetworkOptions nopts;
  nopts.mode = net::NetMode::kSimulated;
  nopts.channel.loss_prob = 0.05;
  nopts.channel.latency_s = 0.01;
  nopts.deadline_factor = 4.0;
  nopts.payload_codec = codec::CodecId::kInt8PerNeuron;
  nopts.error_feedback = true;
  fl::NetworkSession session(fleet, nopts);

  sim::CohortSampler::Options sopts;
  sopts.fraction = 0.125;
  sopts.seed = 17;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  sim::ChurnOptions copts;
  copts.arrival_rate_per_s = 20.0;
  copts.mean_lifetime_s = 1.0;
  copts.seed = 7;
  copts.max_devices = 72;
  sim::ChurnProcess churn(pop, copts);
  core::HeliosStrategy strategy;
  strategy.set_cycle_hook(
      [&](fl::Fleet& f, int cycle) { churn.step(f, cycle); });
  strategy.run(fleet, 4);
  fleet.set_sampler(nullptr);
  fleet.set_telemetry(nullptr);
  sink.flush();

  LiveRun run;
  run.journal = sink.journal_text();
  std::ostringstream dj, sj, r;
  sink.dashboard().write_json(dj);
  sink.dashboard().write_summary_json(sj);
  sink.render_dashboard(r);
  run.dashboard_json = dj.str();
  run.summary_json = sj.str();
  run.render = r.str();
  util::set_global_threads(0);
  return run;
}

class JournalDigestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tensor::backend::set_kernel_backend(tensor::backend::Backend::kScalar);
  }
  void TearDown() override {
    tensor::backend::clear_kernel_backend_override();
  }
};

TEST_F(JournalDigestTest, LongtailTreeJournalIsByteStable) {
  for (const int threads : {1, 4}) {
    const LiveRun run = longtail_tree_run(threads);
    const std::string text = blank_wall_clock(run.journal);
    EXPECT_EQ(text_digest(text), kJournalDigest)
        << threads << " threads: digest is now " << hex(text_digest(text));

    // Every event type appears.
    std::istringstream is(run.journal);
    const std::vector<obs::JournalEvent> events = obs::read_journal(is);
    std::set<std::string> types;
    for (const obs::JournalEvent& ev : events) types.insert(ev.type);
    EXPECT_EQ(types.size(), 13U) << threads << " threads";

    // Replaying the raw journal reproduces the live dashboard's artifacts.
    obs::StragglerDashboard replayed;
    obs::replay_dashboard(events, replayed);
    std::ostringstream dj, sj, r;
    replayed.write_json(dj);
    replayed.write_summary_json(sj);
    replayed.render(r);
    EXPECT_EQ(dj.str(), run.dashboard_json) << threads << " threads";
    EXPECT_EQ(sj.str(), run.summary_json) << threads << " threads";
    EXPECT_EQ(r.str(), run.render) << threads << " threads";
  }
}

// ---- The committed fixture ----------------------------------------------

std::string fixture_text() {
  std::ifstream is(HELIOS_JOURNAL_FIXTURE, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

struct ViewPin {
  const char* view;
  std::uint64_t digest;
};

TEST(JournalFixtureTest, FixtureIsThePinnedJournal) {
  EXPECT_EQ(text_digest(fixture_text()), kJournalDigest)
      << "digest is now " << hex(text_digest(fixture_text()));
}

TEST(JournalFixtureTest, EveryViewIsByteStable) {
  std::istringstream is(fixture_text());
  const std::vector<obs::JournalEvent> events = obs::read_journal(is);
  ASSERT_FALSE(events.empty());
  const obs::JournalSummary s = obs::summarize_journal(events);

  std::ostringstream summary, summary_json, diff;
  obs::write_summary(summary, s);
  obs::write_summary_json(summary_json, s);
  EXPECT_EQ(obs::write_diff(diff, s, s), 0);

  obs::StragglerDashboard dash;
  obs::replay_dashboard(events, dash);
  std::ostringstream per_device, fleet, dash_json, dash_summary;
  dash.set_summary_threshold(std::numeric_limits<std::size_t>::max());
  dash.render(per_device);
  dash.set_summary_threshold(0);
  dash.render(fleet);
  dash.write_json(dash_json);
  dash.write_summary_json(dash_summary);

  const std::pair<ViewPin, std::string> views[] = {
      {{"write_summary", 0x173bdde737cc4b49ULL}, summary.str()},
      {{"write_summary_json", 0x4c2adc32b1285965ULL}, summary_json.str()},
      {{"write_diff", 0x11b9c2c26a6291dfULL}, diff.str()},
      {{"render per device", 0x8c7009873b0207d6ULL}, per_device.str()},
      {{"render fleet", 0xfe14c07fe708161eULL}, fleet.str()},
      {{"dashboard write_json", 0xc1eb8b0a9e1599feULL}, dash_json.str()},
      {{"dashboard write_summary_json", 0x9858c27678179b25ULL},
       dash_summary.str()},
  };
  for (const auto& [pin, text] : views) {
    EXPECT_EQ(text_digest(text), pin.digest)
        << pin.view << ": digest is now " << hex(text_digest(text));
  }
}

}  // namespace
}  // namespace helios
