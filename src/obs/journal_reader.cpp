#include "obs/journal_reader.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "obs/metrics.h"  // json_escape
#include "util/stats.h"
#include "util/table.h"

namespace helios::obs {

namespace {

[[noreturn]] void bad_value(int line, std::string_view key, const char* what) {
  throw std::runtime_error("journal line " + std::to_string(line) +
                           ": field \"" + std::string(key) + "\" " + what);
}

/// The value of `key` when present; throws unless it has kind `kind`.
const util::JsonValue* typed(const util::JsonValue& obj, int line,
                             std::string_view key, util::JsonValue::Kind kind) {
  const util::JsonValue* v = obj.find(key);
  if (v != nullptr && v->kind() != kind) {
    bad_value(line, key, "has the wrong type");
  }
  return v;
}

/// An integral number of `key` in [lo, hi], or `def` when absent. The checks
/// run on the double, before any cast.
long long integer(const util::JsonValue& obj, int line, std::string_view key,
                  double lo, double hi, long long def) {
  const util::JsonValue* v =
      typed(obj, line, key, util::JsonValue::Kind::kNumber);
  if (v == nullptr) return def;
  const double x = v->as_number();
  if (!(x >= lo && x <= hi) || x != std::trunc(x)) {
    bad_value(line, key, "is not an integer in range");
  }
  return static_cast<long long>(x);
}

constexpr double kIntMin = std::numeric_limits<int>::min();
constexpr double kIntMax = std::numeric_limits<int>::max();
/// Counts above 2^53 are not exact in a double, so no writer produces them.
constexpr double kCountMax = 9007199254740992.0;

}  // namespace

void read_field(const JournalEvent& ev, std::string_view key, int& out) {
  out = static_cast<int>(
      integer(ev.fields, ev.line, key, kIntMin, kIntMax, out));
}

void read_field(const JournalEvent& ev, std::string_view key,
                std::uint64_t& out) {
  out = static_cast<std::uint64_t>(integer(
      ev.fields, ev.line, key, 0.0, kCountMax, static_cast<long long>(out)));
}

void read_field(const JournalEvent& ev, std::string_view key, bool& out) {
  out = integer(ev.fields, ev.line, key, 0.0, 1.0, out ? 1 : 0) != 0;
}

void read_field(const JournalEvent& ev, std::string_view key, double& out) {
  const util::JsonValue* v =
      typed(ev.fields, ev.line, key, util::JsonValue::Kind::kNumber);
  if (v == nullptr) return;
  if (!std::isfinite(v->as_number())) bad_value(ev.line, key, "is not finite");
  out = v->as_number();
}

void read_field(const JournalEvent& ev, std::string_view key,
                std::string_view& out) {
  const util::JsonValue* v =
      typed(ev.fields, ev.line, key, util::JsonValue::Kind::kString);
  if (v != nullptr) out = v->as_string();
}

std::vector<JournalEvent> read_journal(std::istream& is) {
  std::vector<JournalEvent> events;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    JournalEvent ev;
    ev.line = lineno;
    try {
      ev.fields = util::JsonValue::parse(line);
    } catch (const std::exception& e) {
      throw std::runtime_error("journal line " + std::to_string(lineno) +
                               ": " + e.what());
    }
    if (!ev.fields.is_object()) {
      throw std::runtime_error("journal line " + std::to_string(lineno) +
                               ": not an object");
    }
    // The stamps (obs/journal.h); ids leave room for `round + 1`.
    const long long schema =
        integer(ev.fields, lineno, "v", kIntMin, kIntMax, 0);
    if (schema != RunJournal::kSchemaVersion) {
      throw std::runtime_error("journal line " + std::to_string(lineno) +
                               ": unsupported schema v" +
                               std::to_string(schema));
    }
    std::string_view type;
    read_field(ev, "t", type);
    ev.type = type;
    ev.round = static_cast<int>(
        integer(ev.fields, lineno, "r", -1.0, kIntMax - 1.0, -1));
    ev.device = static_cast<int>(
        integer(ev.fields, lineno, "dev", -1.0, kIntMax - 1.0, -1));
    read_field(ev, "vt", ev.vt);
    read_field(ev, "w", ev.wall_ms);
    events.push_back(std::move(ev));
  }
  return events;
}

JournalSummary summarize_journal(const std::vector<JournalEvent>& events) {
  JournalSummary s;
  s.events = events.size();
  s.schema = events.empty() ? 0 : RunJournal::kSchemaVersion;
  for (const JournalEvent& ev : events) {
    s.wall_seconds = std::max(s.wall_seconds, ev.wall_ms / 1e3);
    if (ev.type == TrainEvent::kType) {
      const auto e = decode<TrainEvent>(ev);
      DeviceJournal& d = s.devices[ev.device];
      apply(d.stats, e);
      if (d.first_volume < 0.0) d.first_volume = e.volume;
    } else if (ev.type == SkipEvent::kType) {
      DeviceJournal& d = s.devices[ev.device];
      ++(decode<SkipEvent>(ev).why == "dead" ? d.skipped_dead
                                             : d.skipped_hollow);
    } else if (ev.type == AggEvent::kType) {
      apply(s.devices[ev.device].stats, decode<AggEvent>(ev));
    } else if (ev.type == TransferEvent::kType) {
      const auto e = decode<TransferEvent>(ev);
      DeviceJournal& d = s.devices[ev.device];
      apply(d.stats, e);
      d.deadline_misses += e.deadline_missed ? 1 : 0;
      s.deaths += e.died ? 1 : 0;
    } else if (ev.type == CodecEvent::kType) {
      const auto e = decode<CodecEvent>(ev);
      DeviceJournal& d = s.devices[ev.device];
      apply(d.stats, e);
      add_to(d.codec_raw_bytes, static_cast<long long>(e.bytes_in));
      add_to(d.codec_wire_bytes, static_cast<long long>(e.bytes_out));
    } else if (ev.type == NetRoundEvent::kType) {
      s.renormalized_rounds += decode<NetRoundEvent>(ev).renormalized ? 1 : 0;
    } else if (ev.type == MergeEvent::kType) {
      const auto e = decode<MergeEvent>(ev);
      s.tiers[std::string(e.tier)].add(e);
    } else if (ev.type == ChurnEvent::kType) {
      const auto e = decode<ChurnEvent>(ev);
      s.churn_arrivals += e.arrivals;
      s.churn_departures += e.departures;
    } else if (ev.type == RoundEvent::kType) {
      const auto e = decode<RoundEvent>(ev);
      s.rounds = std::max(s.rounds, ev.round + 1);
      s.strategy = e.strategy;
      s.final_accuracy = e.accuracy;
      s.final_virtual_time = ev.vt;
    }
    // Unknown types (newer writers) are intentionally ignored.
  }
  for (const auto& [id, d] : s.devices) {
    add_to(s.bytes_on_wire, d.stats.wire_bytes);
    add_to(s.frames_sent, d.stats.frames_sent);
    add_to(s.frames_lost, d.stats.frames_lost);
    add_to(s.retransmits, d.stats.retransmits);
    add_to(s.drops, d.stats.drops);
    add_to(s.deadline_misses, d.deadline_misses);
    add_to(s.codec_raw_bytes, d.codec_raw_bytes);
    add_to(s.codec_wire_bytes, d.codec_wire_bytes);
  }
  return s;
}

namespace {

struct Percentiles {
  double p50 = 0.0, p90 = 0.0, max = 0.0;
};

Percentiles percentiles_of(std::vector<double>& xs) {
  Percentiles p;
  if (xs.empty()) return p;
  p.p50 = util::percentile(xs, 50.0);
  p.p90 = util::percentile(xs, 90.0);
  p.max = *std::max_element(xs.begin(), xs.end());
  return p;
}

}  // namespace

void write_summary(std::ostream& os, const JournalSummary& s) {
  os << "run: " << (s.strategy.empty() ? "?" : s.strategy) << ", "
     << s.rounds << " rounds, " << s.devices.size() << " devices, "
     << s.events << " events (schema v" << s.schema << ")\n";
  os << "final: accuracy " << util::Table::num(s.final_accuracy * 100.0, 2)
     << "%, virtual time " << util::Table::num(s.final_virtual_time, 3)
     << " s, wall " << util::Table::num(s.wall_seconds, 2) << " s\n";
  os << "network: " << util::Table::num(
            static_cast<double>(s.bytes_on_wire) / 1e6, 2)
     << " MB on wire, " << s.frames_sent << " frames (" << s.frames_lost
     << " lost, " << s.retransmits << " retx), " << s.drops << " drops, "
     << s.deadline_misses << " deadline misses, " << s.deaths << " deaths, "
     << s.renormalized_rounds << " renormalized rounds\n";
  if (s.codec_raw_bytes > 0 && s.codec_raw_bytes != s.codec_wire_bytes) {
    const double ratio =
        s.codec_wire_bytes > 0
            ? static_cast<double>(s.codec_raw_bytes) /
                  static_cast<double>(s.codec_wire_bytes)
            : 0.0;
    os << "codec: "
       << util::Table::num(static_cast<double>(s.codec_raw_bytes) / 1e6, 2)
       << " MB fp32-dense -> "
       << util::Table::num(static_cast<double>(s.codec_wire_bytes) / 1e6, 2)
       << " MB on wire (" << util::Table::num(ratio, 2) << "x, saved "
       << util::Table::num(
              static_cast<double>(s.codec_raw_bytes - s.codec_wire_bytes) /
                  1e6,
              2)
       << " MB)\n";
  }
  if (s.churn_arrivals > 0 || s.churn_departures > 0) {
    os << "churn: +" << s.churn_arrivals << " / -" << s.churn_departures
       << " devices\n";
  }
  if (!s.tiers.empty()) {
    os << "hierarchy:\n";
    render_tiers(os, s.tiers);
  }

  std::vector<double> trained, skipped, drift, r_n;
  int stragglers = 0, dead = 0;
  for (const auto& [id, d] : s.devices) {
    trained.push_back(d.stats.cycles);
    skipped.push_back(d.skipped_hollow + d.skipped_dead);
    if (d.stats.straggler && d.first_volume > 0.0) {
      drift.push_back(d.last_volume() - d.first_volume);
    }
    if (d.stats.r_n_count > 0) r_n.push_back(d.stats.mean_r_n());
    stragglers += d.stats.straggler ? 1 : 0;
    dead += d.stats.dead ? 1 : 0;
  }
  os << "participation: " << stragglers << " stragglers, " << dead
     << " dead\n";
  util::Table table({"per device", "p50", "p90", "max"});
  auto row = [&](const char* name, std::vector<double>& xs, int prec) {
    if (xs.empty()) return;
    const Percentiles p = percentiles_of(xs);
    table.add_row({name, util::Table::num(p.p50, prec),
                   util::Table::num(p.p90, prec),
                   util::Table::num(p.max, prec)});
  };
  row("rounds trained", trained, 0);
  row("rounds skipped", skipped, 0);
  row("mean r_n", r_n, 3);
  row("volume drift", drift, 3);
  table.print(os);
}

void write_summary_json(std::ostream& os, const JournalSummary& s) {
  os << "{\"schema\":" << s.schema << ",\"strategy\":\"";
  json_escape(os, s.strategy);
  os << "\",\"rounds\":" << s.rounds << ",\"events\":" << s.events
     << ",\"devices\":" << s.devices.size()
     << ",\"final_accuracy\":" << JsonNumber{s.final_accuracy}
     << ",\"final_virtual_time\":" << JsonNumber{s.final_virtual_time}
     << ",\"wall_seconds\":" << JsonNumber{s.wall_seconds}
     << ",\"bytes_on_wire\":" << s.bytes_on_wire
     << ",\"frames_sent\":" << s.frames_sent
     << ",\"frames_lost\":" << s.frames_lost
     << ",\"retransmits\":" << s.retransmits << ",\"drops\":" << s.drops
     << ",\"deadline_misses\":" << s.deadline_misses
     << ",\"deaths\":" << s.deaths
     << ",\"renormalized_rounds\":" << s.renormalized_rounds
     << ",\"churn_arrivals\":" << s.churn_arrivals
     << ",\"churn_departures\":" << s.churn_departures
     << ",\"codec_raw_bytes\":" << s.codec_raw_bytes
     << ",\"codec_wire_bytes\":" << s.codec_wire_bytes;
  if (!s.tiers.empty()) {
    os << ",\"tiers\":{";
    bool first_tier = true;
    for (const auto& [name, t] : s.tiers) {
      if (!first_tier) os << ',';
      first_tier = false;
      os << '"';
      json_escape(os, name);
      os << "\":{\"merges\":" << t.merges
         << ",\"frames_folded\":" << t.frames_folded
         << ",\"bytes_forwarded\":" << t.bytes_forwarded
         << ",\"raw_bytes\":" << t.raw_bytes
         << ",\"deadline_misses\":" << t.deadline_misses
         << ",\"retransmits\":" << t.retransmits
         << ",\"lost_frames\":" << t.lost_frames
         << ",\"fold_seconds\":" << JsonNumber{t.fold_seconds} << '}';
    }
    os << '}';
  }
  os << ",\"per_device\":[";
  bool first = true;
  for (const auto& [id, d] : s.devices) {
    if (!first) os << ',';
    first = false;
    const DeviceStats& st = d.stats;
    os << "{\"device\":" << id << ",\"profile\":\"";
    json_escape(os, st.name);
    os << "\",\"straggler\":" << (st.straggler ? "true" : "false")
       << ",\"trained_rounds\":" << st.cycles
       << ",\"skipped_hollow\":" << d.skipped_hollow
       << ",\"skipped_dead\":" << d.skipped_dead
       << ",\"first_volume\":" << JsonNumber{d.first_volume}
       << ",\"last_volume\":" << JsonNumber{d.last_volume()}
       << ",\"mean_r_n\":" << JsonNumber{st.mean_r_n()}
       << ",\"compute_seconds\":" << JsonNumber{st.compute_seconds}
       << ",\"comm_seconds\":" << JsonNumber{st.comm_seconds}
       << ",\"wire_bytes\":" << st.wire_bytes
       << ",\"codec_raw_bytes\":" << d.codec_raw_bytes
       << ",\"codec_wire_bytes\":" << d.codec_wire_bytes
       << ",\"frames_sent\":" << st.frames_sent
       << ",\"frames_lost\":" << st.frames_lost
       << ",\"retransmits\":" << st.retransmits << ",\"drops\":" << st.drops
       << ",\"deadline_misses\":" << d.deadline_misses
       << ",\"dead\":" << (st.dead ? "true" : "false") << '}';
  }
  os << "]}\n";
}

void replay_dashboard(const std::vector<JournalEvent>& events,
                      StragglerDashboard& dash) {
  for (const JournalEvent& ev : events) {
    if (ev.type == TrainEvent::kType) {
      dash.record(ev.device, decode<TrainEvent>(ev));
    } else if (ev.type == AggEvent::kType) {
      dash.record(ev.device, decode<AggEvent>(ev));
    } else if (ev.type == RotationEvent::kType) {
      dash.record(ev.device, decode<RotationEvent>(ev));
    } else if (ev.type == TransferEvent::kType) {
      dash.record(ev.device, decode<TransferEvent>(ev));
    } else if (ev.type == CodecEvent::kType) {
      dash.record(ev.device, decode<CodecEvent>(ev));
    } else if (ev.type == MergeEvent::kType) {
      dash.record(decode<MergeEvent>(ev));
    }
  }
}

namespace {

struct DiffRow {
  const char* field;
  double a;
  double b;
};

int emit_diff_rows(std::ostream& os, const char* scope,
                   std::span<const DiffRow> rows) {
  int differing = 0;
  util::Table table({"field", "a", "b", "delta"});
  for (const DiffRow& r : rows) {
    if (r.a == r.b) continue;
    ++differing;
    table.add_row({r.field, util::Table::num(r.a, 4),
                   util::Table::num(r.b, 4),
                   util::Table::num(r.b - r.a, 4)});
  }
  if (differing > 0) {
    os << scope << ":\n";
    table.print(os);
  }
  return differing;
}

}  // namespace

int write_diff(std::ostream& os, const JournalSummary& a,
               const JournalSummary& b) {
  const DiffRow run_rows[] = {
      {"rounds", static_cast<double>(a.rounds), static_cast<double>(b.rounds)},
      {"devices", static_cast<double>(a.devices.size()),
       static_cast<double>(b.devices.size())},
      {"final_accuracy", a.final_accuracy, b.final_accuracy},
      {"final_virtual_time", a.final_virtual_time, b.final_virtual_time},
      {"bytes_on_wire", static_cast<double>(a.bytes_on_wire),
       static_cast<double>(b.bytes_on_wire)},
      {"frames_sent", static_cast<double>(a.frames_sent),
       static_cast<double>(b.frames_sent)},
      {"frames_lost", static_cast<double>(a.frames_lost),
       static_cast<double>(b.frames_lost)},
      {"retransmits", static_cast<double>(a.retransmits),
       static_cast<double>(b.retransmits)},
      {"drops", static_cast<double>(a.drops), static_cast<double>(b.drops)},
      {"deadline_misses", static_cast<double>(a.deadline_misses),
       static_cast<double>(b.deadline_misses)},
      {"deaths", static_cast<double>(a.deaths),
       static_cast<double>(b.deaths)},
      {"renormalized_rounds", static_cast<double>(a.renormalized_rounds),
       static_cast<double>(b.renormalized_rounds)},
      {"churn_arrivals", static_cast<double>(a.churn_arrivals),
       static_cast<double>(b.churn_arrivals)},
      {"churn_departures", static_cast<double>(a.churn_departures),
       static_cast<double>(b.churn_departures)},
      {"codec_raw_bytes", static_cast<double>(a.codec_raw_bytes),
       static_cast<double>(b.codec_raw_bytes)},
      {"codec_wire_bytes", static_cast<double>(a.codec_wire_bytes),
       static_cast<double>(b.codec_wire_bytes)},
  };
  int differing = emit_diff_rows(os, "run", run_rows);

  // Per-device diff over the union of device ids.
  for (auto ita = a.devices.begin(), itb = b.devices.begin();
       ita != a.devices.end() || itb != b.devices.end();) {
    int id = 0;
    const DeviceJournal* da = nullptr;
    const DeviceJournal* db = nullptr;
    if (itb == b.devices.end() ||
        (ita != a.devices.end() && ita->first <= itb->first)) {
      id = ita->first;
      da = &ita->second;
      if (itb != b.devices.end() && itb->first == id) db = &itb->second;
    } else {
      id = itb->first;
      db = &itb->second;
    }
    static const DeviceJournal kEmpty;
    const DeviceJournal& x = da != nullptr ? *da : kEmpty;
    const DeviceJournal& y = db != nullptr ? *db : kEmpty;
    const DiffRow device_rows[] = {
        {"trained_rounds", static_cast<double>(x.stats.cycles),
         static_cast<double>(y.stats.cycles)},
        {"skipped", static_cast<double>(x.skipped_hollow + x.skipped_dead),
         static_cast<double>(y.skipped_hollow + y.skipped_dead)},
        {"mean_r_n", x.stats.mean_r_n(), y.stats.mean_r_n()},
        {"last_volume", x.last_volume(), y.last_volume()},
        {"wire_bytes", static_cast<double>(x.stats.wire_bytes),
         static_cast<double>(y.stats.wire_bytes)},
        {"retransmits", static_cast<double>(x.stats.retransmits),
         static_cast<double>(y.stats.retransmits)},
        {"drops", static_cast<double>(x.stats.drops),
         static_cast<double>(y.stats.drops)},
        {"dead", x.stats.dead ? 1.0 : 0.0, y.stats.dead ? 1.0 : 0.0},
    };
    const std::string scope = "device " + std::to_string(id);
    differing += emit_diff_rows(os, scope.c_str(), device_rows);
    if (da != nullptr) ++ita;
    if (db != nullptr) ++itb;
  }
  if (differing == 0) os << "journals agree on all compared fields\n";
  return differing;
}

}  // namespace helios::obs
