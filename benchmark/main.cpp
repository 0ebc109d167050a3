// helios-benchmark: the repository's benchmark of record.
//
// One invocation runs one workload in one mode and prints every metric as
// a `name value unit` line, then one JSON object as the last line:
//
//   helios-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//                    [--out DIR]
//   helios-benchmark --smoke [--out DIR]
//
// --trace 0 (end-to-end): no TelemetrySink is attached. The federation is
// set up at least three times (setup_s is the median), runs five warm-up
// rounds, then runs rounds for --seconds of wall time (default 15, the
// run_seconds of BENCHMARK.json), and never fewer than the workload's quality
// rounds, so the seed-deterministic metrics always cover the same rounds.
//
// --trace 1 (per-layer): an untraced run of 5 + 20 rounds, then the same
// rounds again with an in-memory tracing TelemetrySink. The benchmark's own
// bench.setup.* / bench.round / bench.checkpoint / bench.probe.* spans and
// the program's existing spans are reduced per round; after the loop, probes
// time single layer calls on eight real updates. The trace is written to
// DIR/<workload>.trace.json.
//
// Correctness checks (any failure makes "correct" false and the exit code 1):
// the traced rounds equal the untraced ones bit for bit; every probe frame
// decodes to exactly what the encoder said the receiver would see; the
// checkpointing workload resumes its last checkpoint into a rebuilt fleet and
// the next rounds match the original bit for bit; every workload reaches the
// accuracy target within its quality rounds.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "agg/accumulator.h"
#include "core/soft_training.h"
#include "net/wire.h"
#include "obs/procstat.h"
#include "obs/telemetry.h"
#include "tensor/backend/dispatch.h"
#include "trace_stats.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace helios::benchmark {
namespace {

using Clock = std::chrono::steady_clock;

/// Per-update probes time this many calls (three passes over the eight
/// updates); per-round probes time kRoundProbeCalls calls. Each reports the
/// median.
constexpr int kProbeUpdates = 8;
constexpr int kProbePasses = 3;
constexpr int kRoundProbeCalls = 20;
/// Rounds compared bit for bit after a checkpoint resume.
constexpr int kResumeRounds = 5;
/// Wall seconds of the end-to-end timed loop: the `run_seconds` of
/// BENCHMARK.json, whose runner passes it back as --seconds.
constexpr double kRunSeconds = 15.0;
/// Independent set-ups per end-to-end run; setup_s is their median. Cheap
/// set-ups repeat until kSetupBudgetSeconds have passed: the testbed's
/// 65 ms set-up runs on one core, whose speed on a shared host drifts by up to
/// 50% for a second at a time. Over ten processes on a busy host the median
/// of 3 set-ups spread 33% and of 15 11%; on a quiet one 8%, 4% and, for 25
/// to 40 set-ups, 2-3%.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetSeconds = 3.0;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int thread_count() {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hc == 0 ? 1 : hc), 1, 4);
}

/// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_record(const fl::RoundRecord& a, const fl::RoundRecord& b) {
  return a.cycle == b.cycle && same_bits(a.virtual_time, b.virtual_time) &&
         same_bits(a.test_accuracy, b.test_accuracy) &&
         same_bits(a.mean_train_loss, b.mean_train_loss) &&
         same_bits(a.upload_mb, b.upload_mb);
}

/// Rounds [from, to) of `a` and `b` exist and are bitwise equal.
bool same_rounds(const fl::RunResult& a, const fl::RunResult& b,
                 std::size_t from, std::size_t to) {
  if (a.rounds.size() < to || b.rounds.size() < to) return false;
  for (std::size_t i = from; i < to; ++i) {
    if (!same_record(a.rounds[i], b.rounds[i])) return false;
  }
  return true;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  int trace = 0;
  std::string out = ".";
  bool smoke = false;
};

/// Round counts of one run; the smoke plan shrinks everything.
struct Plan {
  int warmup = kWarmupRounds;
  int traced = kTracedRounds;
  int quality_rounds = 0;
  int checkpoint_every = 0;
  int min_setups = kMinSetups;
  double setup_budget_s = kSetupBudgetSeconds;
  double seconds = 0.0;
  bool check_target = true;
};

Plan make_plan(const Workload& w, const Options& opt) {
  Plan p;
  p.quality_rounds = w.quality_rounds;
  p.checkpoint_every = w.checkpoint_every;
  p.seconds = opt.seconds;
  if (opt.smoke) {
    p.warmup = 1;
    p.traced = 2;
    p.quality_rounds = 3;
    p.checkpoint_every = w.checkpoint_every > 0 ? 1 : 0;
    p.min_setups = 1;
    p.setup_budget_s = 0.0;
    p.seconds = 0.0;
    p.check_target = false;
  }
  return p;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports.
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  /// Rounds behind the wall statistics (recorded in the result file).
  std::size_t timed_rounds = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string why) {
    correct = false;
    failures.push_back(std::move(why));
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

std::string metrics_json(const Outcome& o) {
  std::string s = "{";
  for (std::size_t i = 0; i < o.metrics.size(); ++i) {
    const Metric& m = o.metrics[i];
    s += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}";
}

std::string checkpoint_path(const Options& opt, const Workload& w) {
  return opt.out + "/" + w.name + ".ckpt";
}

/// One round (plus the workload's checkpoint save when due); returns its
/// wall seconds.
double timed_round(Rig& rig, const Plan& plan, const std::string& ckpt,
                   obs::TraceWriter* tracer) {
  const int r = static_cast<int>(rig.result.rounds.size());
  obs::TraceSpan span(tracer, "bench.round", {{"round", r}});
  const auto t0 = Clock::now();
  rig.run_round();
  if (plan.checkpoint_every > 0 && (r + 1) % plan.checkpoint_every == 0) {
    obs::TraceSpan save(tracer, "bench.checkpoint");
    rig.fleet->save_checkpoint(ckpt, rig.strategy.get(), rig.result);
  }
  return seconds_since(t0);
}

/// The first `rounds` records of a run, for the seed-deterministic metrics.
fl::RunResult prefix(const fl::RunResult& r, std::size_t rounds) {
  fl::RunResult p;
  p.method = r.method;
  p.rounds.assign(r.rounds.begin(),
                  r.rounds.begin() +
                      static_cast<std::ptrdiff_t>(
                          std::min(rounds, r.rounds.size())));
  return p;
}

/// Resumes the rig's last checkpoint into a freshly built rig and checks
/// that the next kResumeRounds rounds match the original bit for bit (the
/// original runs on, unsaved, as far as needed). Returns the resume's wall
/// seconds.
double check_resume(Rig& original, const Plan& plan, const RigOptions& ro,
                    const std::string& ckpt, Outcome& out) {
  const auto every = static_cast<std::size_t>(plan.checkpoint_every);
  const std::size_t saved = (original.result.rounds.size() / every) * every;
  if (saved == 0) {
    out.fail("checkpoint resume: no checkpoint was written");
    return 0.0;
  }
  while (original.result.rounds.size() < saved + kResumeRounds) {
    original.run_round();
  }
  RigOptions plain = ro;
  plain.tracer = nullptr;
  plain.telemetry = nullptr;
  std::unique_ptr<Rig> rebuilt = build_rig(*original.workload, plain);
  const auto t0 = Clock::now();
  rebuilt->result = rebuilt->fleet->resume(ckpt, rebuilt->strategy.get());
  const double load_s = seconds_since(t0);
  if (rebuilt->result.rounds.size() != saved) {
    out.fail("checkpoint resume: restored " +
             std::to_string(rebuilt->result.rounds.size()) +
             " rounds, expected " + std::to_string(saved));
    return load_s;
  }
  for (int i = 0; i < kResumeRounds; ++i) rebuilt->run_round();
  if (!same_rounds(original.result, rebuilt->result, 0,
                   saved + kResumeRounds)) {
    out.fail("checkpoint resume: resumed rounds differ from the original");
  }
  std::remove(ckpt.c_str());
  return load_s;
}

// ---------------------------------------------------------------------------
// End-to-end run
// ---------------------------------------------------------------------------

Outcome run_e2e(const Workload& w, const Options& opt, const Plan& plan) {
  Outcome out;
  const RigOptions ro{opt.seed, opt.smoke, nullptr, nullptr};
  std::vector<double> setups;
  std::unique_ptr<Rig> rig;
  const auto setup0 = Clock::now();
  while (static_cast<int>(setups.size()) < plan.min_setups ||
         (seconds_since(setup0) < plan.setup_budget_s &&
          static_cast<int>(setups.size()) < kMaxSetups)) {
    rig.reset();  // one federation alive at a time
    const auto t0 = Clock::now();
    rig = build_rig(w, ro);
    setups.push_back(seconds_since(t0));
  }

  const std::string ckpt = checkpoint_path(opt, w);
  std::vector<double> walls;
  double loop_wall = 0.0;
  try {
    for (int r = 0; r < plan.warmup; ++r) {
      ++out.attempted;
      timed_round(*rig, plan, ckpt, nullptr);
    }
    const auto loop0 = Clock::now();
    while (seconds_since(loop0) < plan.seconds ||
           rig->result.rounds.size() <
               static_cast<std::size_t>(plan.quality_rounds)) {
      ++out.attempted;
      walls.push_back(timed_round(*rig, plan, ckpt, nullptr));
    }
    loop_wall = seconds_since(loop0);
    out.timed_rounds = walls.size();
  } catch (const std::exception& e) {
    ++out.failed;
    out.fail(std::string("round failed: ") + e.what());
  }
  // Read before the resume check, which builds a second federation.
  const double peak_rss_mb = obs::read_proc_memory().peak_rss_mb;
  if (plan.checkpoint_every > 0 && out.failed == 0) {
    try {
      check_resume(*rig, plan, ro, ckpt, out);
    } catch (const std::exception& e) {
      out.fail(std::string("checkpoint resume failed: ") + e.what());
    }
  }

  const fl::RunResult q = prefix(
      rig->result, static_cast<std::size_t>(plan.quality_rounds));
  if (plan.check_target &&
      !std::isfinite(q.time_to_accuracy(kTargetAccuracy))) {
    out.fail("accuracy target not reached within " +
             std::to_string(plan.quality_rounds) + " rounds");
  }
  std::vector<double> uploads;
  for (const fl::RoundRecord& r : q.rounds) uploads.push_back(r.upload_mb);

  out.add("setup_s", median(setups), "s");
  out.add("rounds_per_s",
          loop_wall > 0.0 ? static_cast<double>(walls.size()) / loop_wall
                          : 0.0,
          "1/s");
  out.add("round_wall_p50_s", quantile(walls, 0.5), "s");
  out.add("round_wall_p90_s", quantile(walls, 0.9), "s");
  out.add("peak_rss_mb", peak_rss_mb, "MB");
  out.add("final_accuracy", q.final_accuracy(), "fraction");
  out.add("upload_mb_per_round", mean(uploads), "MB");
  return out;
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

/// Network counters summed over the fleet's device ids.
struct NetCounters {
  double bytes = 0.0;
  double frames = 0.0;
  double updates = 0.0;
  double drops = 0.0;
  double codec_in = 0.0;
  double codec_out = 0.0;
};

NetCounters read_net_counters(obs::TelemetrySink& sink, std::size_t devices) {
  NetCounters c;
  obs::MetricsRegistry& m = sink.metrics();
  for (std::size_t d = 0; d < devices; ++d) {
    const obs::LabelSet l{{"device", std::to_string(d)}};
    c.bytes += m.counter("helios.net.bytes_on_wire_total", l).value();
    c.frames += m.counter("helios.net.frames_sent_total", l).value();
    c.drops += m.counter("helios.net.drops_total", l).value();
    c.updates +=
        static_cast<double>(m.histogram("helios.net.comm_seconds", l).count());
    c.codec_in += m.counter("helios.codec.bytes_in_total", l).value();
    c.codec_out += m.counter("helios.codec.bytes_out_total", l).value();
  }
  return c;
}

struct ProbeResults {
  double round_roster = 0.0;
  double encode = 0.0;
  double decode = 0.0;
  double deliver_round = 0.0;
  double fold = 0.0;
  double merge_codec = 0.0;
};

template <typename Fn>
double time_call(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// Times single layer calls on eight real updates trained from the next
/// round's roster. Runs after the measured loop; it mutates the fleet
/// (client cycles, channel draws, error-feedback residuals).
ProbeResults run_probes(Rig& rig, obs::TraceWriter* tracer, Outcome& out) {
  fl::Fleet& fleet = *rig.fleet;
  const int next = static_cast<int>(rig.result.rounds.size());
  ProbeResults p;

  std::vector<fl::Client*> roster;
  {
    obs::TraceSpan s(tracer, "bench.probe.round_roster");
    std::vector<double> t;
    for (int i = 0; i < kRoundProbeCalls; ++i) {
      t.push_back(time_call([&] { roster = fleet.round_roster(next); }));
    }
    p.round_roster = median(t);
  }
  if (roster.empty()) {
    out.fail("probes: empty roster");
    return p;
  }

  const std::vector<float> global = fleet.server().global();
  const std::vector<float> buffers = fleet.server().global_buffers();
  std::vector<fl::ClientUpdate> updates;
  {
    obs::TraceSpan s(tracer, "bench.probe.train");
    for (int i = 0; i < kProbeUpdates; ++i) {
      fl::Client& c = *roster[static_cast<std::size_t>(i) % roster.size()];
      std::vector<std::uint8_t> mask;
      if (c.is_straggler() && c.volume() < 1.0) {
        core::SoftTrainerConfig sc;
        sc.keep_ratio = c.volume();
        sc.seed = 7 + static_cast<std::uint64_t>(c.id());
        core::SoftTrainer trainer(c.estimation_model(), sc);
        mask = trainer.select_mask();
      }
      updates.push_back(c.run_cycle(global, buffers, mask));
    }
  }

  const net::WireLayout layout =
      rig.network ? rig.network->layout()
                  : net::make_wire_layout(fleet.server().reference_model());
  std::vector<double> enc_t;
  std::vector<double> dec_t;
  bool decode_exact = true;
  {
    obs::TraceSpan s(tracer, "bench.probe.codec");
    for (int pass = 0; pass < kProbePasses; ++pass) {
      for (const fl::ClientUpdate& u : updates) {
        net::WireMessage msg;
        msg.client_id = u.client_id;
        msg.sample_count = u.sample_count;
        msg.mean_loss = u.mean_loss;
        msg.params = u.params;
        msg.buffers = u.buffers;
        msg.neuron_mask = u.trained_mask;
        net::CodecResult res;
        std::vector<std::uint8_t> frame;
        enc_t.push_back(time_call([&] {
          frame = net::encode_frame_auto(msg, global, layout, rig.codec, &res);
        }));
        net::DecodedMessage dec;
        dec_t.push_back(time_call(
            [&] { dec = net::decode_frame(frame, layout, global); }));
        // A lossless frame must reproduce the update; a quantized one must
        // reproduce exactly what the encoder promised the receiver.
        const std::vector<float>& expect =
            res.dequantized.empty() ? u.params : res.dequantized;
        decode_exact = decode_exact && same_bytes(dec.params, expect) &&
                       same_bytes(dec.buffers, u.buffers);
      }
    }
  }
  if (!decode_exact) out.fail("probes: decode_frame differs from the encoder");
  p.encode = median(enc_t);
  p.decode = median(dec_t);

  {
    obs::TraceSpan s(tracer, "bench.probe.deliver_round");
    std::vector<double> t;
    for (int i = 0; i < kRoundProbeCalls; ++i) {
      t.push_back(
          time_call([&] { fl::deliver_round(fleet, updates, global); }));
    }
    p.deliver_round = median(t);
  }

  const agg::ModelGeometry& geo = fleet.server().geometry();
  agg::StreamingAccumulator acc(&geo);
  {
    obs::TraceSpan s(tracer, "bench.probe.fold");
    std::vector<double> t;
    for (int pass = 0; pass < kProbePasses; ++pass) {
      acc.reset();
      for (const fl::ClientUpdate& u : updates) {
        const agg::UpdateView v{u.client_id, u.params, u.buffers,
                                u.trained_mask};
        const agg::FoldWeights wts{static_cast<double>(u.sample_count),
                                   static_cast<double>(u.sample_count)};
        t.push_back(time_call([&] { acc.fold(v, wts, true); }));
      }
    }
    p.fold = median(t);
  }
  {
    obs::TraceSpan s(tracer, "bench.probe.merge_frame");
    std::vector<double> t;
    bool exact = true;
    for (int i = 0; i < kRoundProbeCalls; ++i) {
      agg::StreamingAccumulator back;
      t.push_back(time_call([&] {
        back = agg::StreamingAccumulator::decode_frame(acc.encode_frame(),
                                                       &geo);
      }));
      exact = exact && same_bytes(back.acc(), acc.acc()) &&
              same_bytes(back.den(), acc.den()) &&
              same_bytes(back.buffer_acc(), acc.buffer_acc());
    }
    if (!exact) out.fail("probes: merge frame round trip is not bit-exact");
    p.merge_codec = median(t);
  }
  return p;
}

Outcome run_traced(const Workload& w, const Options& opt, const Plan& plan) {
  Outcome out;
  const RigOptions ro{opt.seed, opt.smoke, nullptr, nullptr};
  const std::string ckpt = checkpoint_path(opt, w);
  const int rounds = plan.warmup + plan.traced;
  const int threads = util::global_thread_count();

  // Untraced twin of the traced rounds: the bitwise reference and the
  // denominator of the tracing overhead.
  fl::RunResult plain_result;
  std::vector<double> plain_walls;
  try {
    std::unique_ptr<Rig> plain = build_rig(w, ro);
    for (int r = 0; r < rounds; ++r) {
      const double wall = timed_round(*plain, plan, ckpt, nullptr);
      if (r >= plan.warmup) plain_walls.push_back(wall);
    }
    plain_result = plain->result;
  } catch (const std::exception& e) {
    out.fail(std::string("untraced reference run failed: ") + e.what());
  }

  obs::TelemetryConfig tc;
  tc.tracing = true;
  obs::TelemetrySink sink(tc);
  sink.install();
  RigOptions tro = ro;
  tro.tracer = sink.tracer();
  tro.telemetry = &sink;
  std::unique_ptr<Rig> rig = build_rig(w, tro);
  fl::HierarchySession* hier =
      rig->hierarchy && rig->hierarchy->active() ? rig->hierarchy.get()
                                                 : nullptr;

  std::vector<double> walls;
  std::vector<double> edge_fold;
  std::vector<double> regional_fold;
  std::vector<double> root_fold;
  std::vector<double> cohort;
  NetCounters c0;
  NetCounters c1;
  double load_s = 0.0;
  ProbeResults probes;
  try {
    for (int r = 0; r < rounds; ++r) {
      if (r == plan.warmup && rig->network) {
        c0 = read_net_counters(sink, rig->fleet->size());
      }
      ++out.attempted;
      const double wall = timed_round(*rig, plan, ckpt, sink.tracer());
      if (r < plan.warmup) continue;
      walls.push_back(wall);
      double e = 0.0;
      double g = 0.0;
      double t = 0.0;
      if (hier != nullptr) {
        for (const agg::TierStats& s : hier->tree().tier_stats()) {
          const std::string tier = s.tier;
          (tier == "edge" ? e : tier == "regional" ? g : t) += s.fold_seconds;
        }
      }
      edge_fold.push_back(e);
      regional_fold.push_back(g);
      root_fold.push_back(t);
      double live = 0.0;
      for (const auto& c : rig->fleet->clients()) live += c->materialized();
      cohort.push_back(live);
    }
    out.timed_rounds = walls.size();
    if (rig->network) c1 = read_net_counters(sink, rig->fleet->size());
    if (!same_rounds(rig->result, plain_result, 0,
                     static_cast<std::size_t>(rounds))) {
      out.fail("traced rounds differ from the untraced run");
    }
    if (plan.checkpoint_every > 0) {
      load_s = check_resume(*rig, plan, ro, ckpt, out);
    }
    probes = run_probes(*rig, sink.tracer(), out);
  } catch (const std::exception& e) {
    ++out.failed;
    out.fail(std::string("traced run failed: ") + e.what());
  }
  rig->fleet->set_telemetry(nullptr);
  sink.uninstall();
  sink.flush();
  const std::string text = sink.trace_text();
  std::ofstream(opt.out + "/" + w.name + ".trace.json") << text;

  const std::vector<Span> spans = parse_spans(text);
  std::vector<RoundSpans> per_round;
  for (RoundSpans& rs : spans_by_round(spans)) {
    if (rs.round >= plan.warmup) per_round.push_back(std::move(rs));
  }
  auto per_round_mean = [&](auto&& value_of) {
    std::vector<double> v;
    for (const RoundSpans& rs : per_round) v.push_back(value_of(rs));
    return mean(v);
  };
  auto total = [&](std::initializer_list<const char*> names) {
    return per_round_mean([&](const RoundSpans& rs) {
      double s = 0.0;
      for (const char* n : names) s += rs.total_of(n);
      return s;
    });
  };

  out.add("sim.build_fleet_s", total_seconds(spans, "bench.setup.build_fleet"),
          "s");
  out.add("core.identify_stragglers_s",
          total_seconds(spans, "bench.setup.identify_stragglers"), "s");
  out.add("core.assign_targets_s",
          total_seconds(spans, "bench.setup.assign_targets"), "s");
  out.add("fl.attach_sessions_s",
          total_seconds(spans, "bench.setup.attach_sessions"), "s");

  out.add("fl.client_train_s", total({"client.train"}), "s");
  out.add("nn.conv2d_s", total({"conv2d.forward", "conv2d.backward"}), "s");
  out.add("nn.dense_s", total({"dense.forward", "dense.backward"}), "s");
  out.add("util.fanout_busy_share",
          per_round_mean([&](const RoundSpans& rs) {
            return rs.total_of("client.run_cycle") /
                   (static_cast<double>(threads) * rs.wall);
          }),
          "fraction");

  out.add("fl.client_prepare_s",
          per_round_mean([](const RoundSpans& rs) {
            return rs.total_of("client.run_cycle") -
                   rs.total_of("client.train");
          }),
          "s");
  out.add("sim.cohort_per_round", mean(cohort), "count");
  out.add("sim.round_roster_s", probes.round_roster, "s");

  const double timed = static_cast<double>(std::max(1, plan.traced));
  const NetCounters d{c1.bytes - c0.bytes,         c1.frames - c0.frames,
                      c1.updates - c0.updates,     c1.drops - c0.drops,
                      c1.codec_in - c0.codec_in,   c1.codec_out - c0.codec_out};
  out.add("codec.encode_s_per_update", probes.encode, "s");
  out.add("codec.decode_s_per_update", probes.decode, "s");
  out.add("codec.compression_ratio",
          d.codec_out > 0.0 ? d.codec_in / d.codec_out : 1.0, "ratio");
  out.add("net.frame_bytes_per_update",
          d.frames > 0.0 ? d.bytes / d.frames : 0.0, "bytes");
  out.add("net.frames_per_round", d.frames / timed, "count");
  out.add("net.retransmits_per_round",
          std::max(0.0, d.frames - d.updates) / timed, "count");
  out.add("net.update_drop_ratio", d.updates > 0.0 ? d.drops / d.updates : 0.0,
          "fraction");
  out.add("fl.deliver_round_s", probes.deliver_round, "s");

  out.add("agg.edge_fold_s", mean(edge_fold), "s");
  out.add("agg.regional_fold_s", mean(regional_fold), "s");
  out.add("agg.root_fold_s", mean(root_fold), "s");
  out.add("agg.fold_s_per_update", probes.fold, "s");
  out.add("agg.merge_frame_codec_s", probes.merge_codec, "s");

  out.add("fl.server_aggregate_s", total({"server.aggregate"}), "s");
  out.add("fl.server_evaluate_s", total({"server.evaluate"}), "s");
  out.add("core.select_submodels_s", total({"helios.select_submodels"}), "s");
  out.add(
      "core.update_contributions_s",
      total({"soft_training.update_contributions", "rotation.record_cycle"}),
      "s");

  out.add("fl.async_completion_s", total({"afo.completion"}), "s");
  out.add("fl.checkpoint_save_s", total({"bench.checkpoint"}), "s");
  out.add("fl.checkpoint_load_s", load_s, "s");

  out.add("fl.round_self_s", per_round_mean([](const RoundSpans& rs) {
            return rs.self_of("bench.round") + rs.self_of("helios.cycle") +
                   rs.self_of("sync.cycle") + rs.self_of("afo.completion");
          }),
          "s");
  const double plain_p50 = median(plain_walls);
  out.add("obs.trace_overhead_ratio",
          plain_p50 > 0.0 ? median(walls) / plain_p50 - 1.0 : 0.0, "ratio");
  // The virtual clock, beside the wall clocks above. Report-only: the
  // target falls within the first few rounds, so it moves by whole rounds
  // from seed to seed. Not reached: the virtual time of the last round.
  double vtime = plain_result.time_to_accuracy(kTargetAccuracy);
  if (!std::isfinite(vtime)) {
    vtime = plain_result.rounds.empty()
                ? 0.0
                : plain_result.rounds.back().virtual_time;
  }
  out.add("vtime_to_target_s", vtime, "s");
  out.add("rounds_failed_ratio",
          static_cast<double>(out.failed) /
              static_cast<double>(std::max(1L, out.attempted)),
          "fraction");
  return out;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

void report(const Workload& w, const Options& opt, const Outcome& o,
            bool last_line_json) {
  std::cout << "# workload " << w.name << " ("
            << (opt.trace ? "per-layer" : "end-to-end") << ")\n";
  for (const Metric& m : o.metrics) {
    std::cout << m.name << ' ' << json_number(m.value) << ' ' << m.unit
              << '\n';
  }
  for (const std::string& f : o.failures) {
    std::cout << "# CHECK FAILED: " << f << '\n';
  }
  std::ostringstream file;
  file << "{\"workload\": " << json_string(w.name) << ", \"seed\": "
       << opt.seed << ", \"mode\": "
       << (opt.trace ? "\"per_layer\"" : "\"end_to_end\"")
       << ", \"threads\": " << util::global_thread_count()
       << ", \"kernel_backend\": "
       << json_string(tensor::backend::active_backend_name())
       << ", \"correct\": " << (o.correct ? "true" : "false")
       << ", \"attempted\": " << o.attempted << ", \"failed\": " << o.failed
       << ", \"timed_rounds\": " << o.timed_rounds << ", \"failures\": [";
  for (std::size_t i = 0; i < o.failures.size(); ++i) {
    file << (i ? ", " : "") << json_string(o.failures[i]);
  }
  file << "], \"metrics\": " << metrics_json(o) << "}\n";
  std::ofstream(opt.out + "/" + w.name +
                (opt.trace ? ".layers.json" : ".json"))
      << file.str();
  if (last_line_json) {
    std::cout << "{\"correct\": " << (o.correct ? "true" : "false")
              << ", \"attempted\": " << o.attempted
              << ", \"failed\": " << o.failed
              << ", \"metrics\": " << metrics_json(o) << "}" << std::endl;
  }
}

int usage() {
  std::cerr << "usage: helios-benchmark --workload W [--seed N] [--seconds S]"
               " [--trace 0|1] [--out DIR]\n"
               "       helios-benchmark --smoke [--out DIR]\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::atoi(argv[++i]) != 0 ? 1 : 0;
    } else if (a == "--out" && has_value) {
      opt.out = argv[++i];
    } else {
      return usage();
    }
  }
  util::set_global_threads(thread_count());
  std::cout << "threads " << util::global_thread_count() << " kernel_backend "
            << tensor::backend::active_backend_name() << " seed " << opt.seed
            << '\n';

  if (opt.smoke) {
    bool ok = true;
    for (const Workload& w : workloads()) {
      const Plan plan = make_plan(w, opt);
      for (int trace = 0; trace <= 1; ++trace) {
        opt.trace = trace;
        const Outcome o =
            trace ? run_traced(w, opt, plan) : run_e2e(w, opt, plan);
        report(w, opt, o, false);
        ok = ok && o.correct;
      }
    }
    std::cout << (ok ? "smoke: all checks passed" : "smoke: FAILED") << '\n';
    return ok ? 0 : 1;
  }

  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) return usage();
  const Plan plan = make_plan(*w, opt);
  const Outcome o =
      opt.trace ? run_traced(*w, opt, plan) : run_e2e(*w, opt, plan);
  report(*w, opt, o, true);
  return o.correct ? 0 : 1;
}

}  // namespace
}  // namespace helios::benchmark

int main(int argc, char** argv) {
  try {
    return helios::benchmark::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "helios-benchmark: " << e.what() << '\n';
    return 1;
  }
}
