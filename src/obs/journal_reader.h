// Reading side of the run journal (obs/journal.h): parse a JSONL stream
// back into events, aggregate them into a run summary (per-device
// participation, straggler drift, loss / retransmit breakdown), diff two
// runs, and replay a journal into a StragglerDashboard that matches the
// live run's dashboard bit-for-bit.
//
// Summaries aggregate per device before rendering, so two journals of the
// same run recorded at different thread counts — whose lines interleave
// differently — summarize identically.
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "obs/dashboard.h"
#include "util/json.h"

namespace helios::obs {

/// One parsed journal line: the common stamps plus the raw fields.
struct JournalEvent {
  std::string type;
  int line = 0;  // 1-based line number in the journal
  int round = -1;
  int device = -1;
  double vt = 0.0;
  double wall_ms = 0.0;
  util::JsonValue fields;  // the whole line object (stamps included)
};

/// Parses every line of a journal. Throws std::runtime_error on a
/// malformed line (with its line number), an unsupported schema version, or
/// a stamp that is wrong-typed or out of range (round and device ids lie in
/// [-1, INT_MAX - 1]). Unknown event types are preserved — summaries simply
/// ignore them — so old readers tolerate newer writers.
std::vector<JournalEvent> read_journal(std::istream& is);

/// Reads one field of `ev` into `out`, leaving it untouched when the key is
/// absent. Throws std::runtime_error naming the line when the value has the
/// wrong type, a double is not finite, or an integer is not integral or
/// outside its type's range (unsigned counts: [0, 2^53]; bools: 0 or 1).
void read_field(const JournalEvent& ev, std::string_view key, int& out);
void read_field(const JournalEvent& ev, std::string_view key,
                std::uint64_t& out);
void read_field(const JournalEvent& ev, std::string_view key, bool& out);
void read_field(const JournalEvent& ev, std::string_view key, double& out);
/// The view points into `ev.fields`, which must outlive it.
void read_field(const JournalEvent& ev, std::string_view key,
                std::string_view& out);

/// The one decoder of an event's fields: walks Event::fields(), the list
/// RunJournal::record writes, so the two sides cannot drift.
template <typename Event>
Event decode(const JournalEvent& ev) {
  Event e;
  std::apply(
      [&](const auto&... f) { (read_field(ev, f.key, e.*f.member), ...); },
      Event::fields());
  return e;
}

/// Per-device aggregates a summary reports: the dashboard's own fold of the
/// device's train / agg / xfer / codec events, plus what only the summary
/// tracks — skips (which the dashboard never sees), the first volume,
/// deadline misses and the codec's in/out split.
struct DeviceJournal {
  DeviceStats stats;
  int skipped_hollow = 0;
  int skipped_dead = 0;
  double first_volume = -1.0;  // straggler drift: volume at first
  long long deadline_misses = 0;
  /// From "codec" events: fp32-dense bytes the update would have cost vs
  /// what the wire codec actually encoded (equal when the codec is fp32).
  long long codec_raw_bytes = 0;
  long long codec_wire_bytes = 0;

  /// Volume at the last participation (-1 when the device never trained).
  double last_volume() const { return stats.cycles > 0 ? stats.volume : -1.0; }
};

struct JournalSummary {
  int schema = 0;
  std::uint64_t events = 0;
  int rounds = 0;  // max round id + 1 over round events
  std::string strategy;
  double final_accuracy = 0.0;
  double final_virtual_time = 0.0;
  double wall_seconds = 0.0;  // last event's wall stamp

  // Fleet-level totals: the per-device totals summed, plus the counts of
  // device deaths, renormalized rounds and churn.
  long long bytes_on_wire = 0;
  long long frames_sent = 0;
  long long frames_lost = 0;
  long long retransmits = 0;
  long long drops = 0;
  long long deadline_misses = 0;
  long long deaths = 0;
  long long renormalized_rounds = 0;
  long long churn_arrivals = 0;
  long long churn_departures = 0;
  /// Wire-codec totals over "codec" events (zero when the run never
  /// quantized): fp32-dense baseline vs encoded bytes.
  long long codec_raw_bytes = 0;
  long long codec_wire_bytes = 0;

  std::map<int, DeviceJournal> devices;  // ordered by device id

  /// Per-tier rollups from "merge" events (hierarchical aggregation runs
  /// only; empty for flat runs), folded as the live dashboard folds them.
  TierMap tiers;
};

/// Folds the events into a summary. Throws std::runtime_error (naming the
/// line) on an event whose fields fail read_field's checks, as does
/// replay_dashboard.
JournalSummary summarize_journal(const std::vector<JournalEvent>& events);

/// Human-readable summary: run header, loss/retx breakdown, per-device
/// participation percentiles and the straggler-drift table.
void write_summary(std::ostream& os, const JournalSummary& s);
/// Machine-readable equivalent.
void write_summary_json(std::ostream& os, const JournalSummary& s);

/// Replays a journal into a dashboard through the same fold the live
/// TelemetrySink recorders use: its render(), write_json() and
/// write_summary_json() match the live run's byte for byte. Fills `dash` in
/// place (the dashboard owns a mutex, so it cannot be returned by value).
void replay_dashboard(const std::vector<JournalEvent>& events,
                      StragglerDashboard& dash);

/// Field-by-field numeric diff of two run summaries; returns the number of
/// differing fields (0 = the runs agree on everything compared).
int write_diff(std::ostream& os, const JournalSummary& a,
               const JournalSummary& b);

}  // namespace helios::obs
