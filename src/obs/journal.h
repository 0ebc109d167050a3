// Run journal — the flight recorder.
//
// An append-only JSONL event stream recording every round's lifecycle at
// per-device granularity: cohort draws, devices trained or skipped (hollow /
// dead), submodel mask sizes, upload attempts / retransmits / drops /
// deadline misses, frame wire bytes, codec savings, aggregation weights and
// renormalized partial rounds, aggregator-tree tier rollups, rotation
// pressure and churn. Where the metrics registry keeps aggregates and the
// dashboard keeps per-device *totals*, the journal keeps the individual
// events, so a finished run can be summarized, diffed against another run,
// or replayed into the dashboard after the fact (see obs/journal_reader.h
// and the `helios-journal` CLI).
//
// Line format (schema v1) — one flat JSON object per line, short keys:
//   {"v":1,"t":"train","r":3,"dev":7,"vt":1.25,"w":18.4, ...fields...}
//     v    schema version (on every line, so a file tail is self-describing)
//     t    event type
//     r    round / cycle id (-1 when not in a round)
//     dev  device id (-1 for fleet-level events)
//     vt   virtual-clock seconds at emission
//     w    wall-clock milliseconds since the journal opened
// Integers print as integers, bools as 0/1, doubles with %.17g (so a parse
// -> replay round trip is bit-exact), strings JSON-escaped.
//
// The event table: each event type is one struct below, and its fields()
// lists its (key, member) pairs once, in line order. RunJournal::record
// writes a line by walking that list and the reader's decode<Event>
// (obs/journal_reader.h) reads one back by walking the same list. The
// TelemetrySink recorders take these structs, and StragglerDashboard folds
// them (apply / TierTotals::add in obs/dashboard.h) for the live sink, the
// replay and the journal summary alike. Readers skip unknown types, so a
// type added later does not break an older reader.
//
// Threading: writes are serialized by one mutex (journaling is for insight;
// events are rare next to kernel work). Per-device causality is preserved —
// one device's events appear in their program order — while events of
// different devices may interleave differently across thread counts, which
// is why the reader's summaries aggregate per device before comparing.
//
// Disabled path: a RunJournal constructed with a null stream ignores every
// call after one branch — no clock read, no allocation, no I/O. Event
// structs hold std::string_view, so building one allocates nothing either.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <tuple>

namespace helios::obs {

/// One (key, member) pair of an event's field list.
template <typename Event, typename T>
struct Field {
  std::string_view key;
  T Event::*member;
};

/// First line of a journal (never written on a resume).
struct RunStartEvent {
  static constexpr std::string_view kType = "run_start";
  int schema = 0;
  static constexpr auto fields() {
    return std::tuple{Field{"schema", &RunStartEvent::schema}};
  }
};

/// Last line of a journal: the total event count, itself included.
struct RunEndEvent {
  static constexpr std::string_view kType = "run_end";
  std::uint64_t events = 0;
  static constexpr auto fields() {
    return std::tuple{Field{"events", &RunEndEvent::events}};
  }
};

/// One round's cohort draw: fleet size, active roster, sampled clients.
struct CohortEvent {
  static constexpr std::string_view kType = "cohort";
  std::uint64_t population = 0;
  std::uint64_t active = 0;
  std::uint64_t sampled = 0;
  static constexpr auto fields() {
    return std::tuple{Field{"pop", &CohortEvent::population},
                      Field{"act", &CohortEvent::active},
                      Field{"sam", &CohortEvent::sampled}};
  }
};

/// A device sitting a round out: `why` is "hollow" (active but not
/// sampled, replica hibernated) or "dead" (deactivated).
struct SkipEvent {
  static constexpr std::string_view kType = "skip";
  std::string_view why;
  static constexpr auto fields() {
    return std::tuple{Field{"why", &SkipEvent::why}};
  }
};

/// A finished client cycle: the submodel it trained (mask of neuron_total
/// neurons) and its virtual-time compute / upload split.
struct TrainEvent {
  static constexpr std::string_view kType = "train";
  std::string_view profile;
  bool straggler = false;
  double volume = 1.0;
  int trained_neurons = 0;
  int neuron_total = 0;
  double train_seconds = 0.0;
  double upload_seconds = 0.0;
  double upload_mb = 0.0;
  double mean_loss = 0.0;
  static constexpr auto fields() {
    return std::tuple{Field{"prof", &TrainEvent::profile},
                      Field{"strag", &TrainEvent::straggler},
                      Field{"vol", &TrainEvent::volume},
                      Field{"mask", &TrainEvent::trained_neurons},
                      Field{"tot", &TrainEvent::neuron_total},
                      Field{"train_s", &TrainEvent::train_seconds},
                      Field{"up_s", &TrainEvent::upload_seconds},
                      Field{"up_mb", &TrainEvent::upload_mb},
                      Field{"loss", &TrainEvent::mean_loss}};
  }
};

/// One device's upload across the network, attempts collapsed: bytes that
/// transited the wire, transmissions (retransmits included), whether the
/// server accepted the frame, missed the round deadline, or saw the
/// channel die.
struct TransferEvent {
  static constexpr std::string_view kType = "xfer";
  std::uint64_t bytes_on_wire = 0;
  int transmissions = 0;
  int lost_frames = 0;
  bool delivered = true;  // an ideal-channel transfer always arrives
  bool deadline_missed = false;
  bool died = false;
  double comm_seconds = 0.0;
  static constexpr auto fields() {
    return std::tuple{Field{"bytes", &TransferEvent::bytes_on_wire},
                      Field{"tx", &TransferEvent::transmissions},
                      Field{"lost", &TransferEvent::lost_frames},
                      Field{"ok", &TransferEvent::delivered},
                      Field{"miss", &TransferEvent::deadline_missed},
                      Field{"dead", &TransferEvent::died},
                      Field{"comm_s", &TransferEvent::comm_seconds}};
  }
};

/// One quantized upload encode: the bytes a dense fp32 frame would have
/// cost, the wire bytes, and the client's carried error-feedback residual
/// L2 norm.
struct CodecEvent {
  static constexpr std::string_view kType = "codec";
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  double residual_norm = 0.0;
  static constexpr auto fields() {
    return std::tuple{Field{"in", &CodecEvent::bytes_in},
                      Field{"out", &CodecEvent::bytes_out},
                      Field{"res", &CodecEvent::residual_norm}};
  }
};

/// The aggregation weight actually used for one update: r_n is the trained
/// fraction of Eq. 10, alpha the normalized share (shares sum to 1 across a
/// cycle's participants).
struct AggEvent {
  static constexpr std::string_view kType = "agg";
  double r_n = 1.0;
  double alpha = 0.0;
  static constexpr auto fields() {
    return std::tuple{Field{"r_n", &AggEvent::r_n},
                      Field{"alpha", &AggEvent::alpha}};
  }
};

/// Rotation regulation snapshot: neurons force-included this cycle and the
/// skipped-cycle distribution (neurons with C_s = 0, 1, 2, >= 3).
struct RotationEvent {
  static constexpr std::string_view kType = "rot";
  int forced = 0;
  int cs0 = 0;
  int cs1 = 0;
  int cs2 = 0;
  int cs3 = 0;
  static constexpr auto fields() {
    return std::tuple{Field{"forced", &RotationEvent::forced},
                      Field{"cs0", &RotationEvent::cs0},
                      Field{"cs1", &RotationEvent::cs1},
                      Field{"cs2", &RotationEvent::cs2},
                      Field{"cs3", &RotationEvent::cs3}};
  }
};

/// One synchronous round's network closure. `renormalized` marks a partial
/// round (fewer arrivals than participants, weights re-spread); the sink
/// derives it from the counts.
struct NetRoundEvent {
  static constexpr std::string_view kType = "net_round";
  std::uint64_t bytes_on_wire = 0;
  int participants = 0;
  int delivered = 0;
  int lost_frames = 0;
  int retransmits = 0;
  int deadline_misses = 0;
  int deaths = 0;
  bool renormalized = false;
  static constexpr auto fields() {
    return std::tuple{Field{"bytes", &NetRoundEvent::bytes_on_wire},
                      Field{"n", &NetRoundEvent::participants},
                      Field{"okn", &NetRoundEvent::delivered},
                      Field{"lost", &NetRoundEvent::lost_frames},
                      Field{"retx", &NetRoundEvent::retransmits},
                      Field{"miss", &NetRoundEvent::deadline_misses},
                      Field{"dead", &NetRoundEvent::deaths},
                      Field{"renorm", &NetRoundEvent::renormalized}};
  }
};

/// One aggregator-tree tier's rollup for the round (hierarchical runs only;
/// `tier` is "edge", "regional" or "root"). `raw_bytes` counts one uplink
/// payload per frame crossing, retransmits excluded; `fold_seconds` is wall
/// clock.
struct MergeEvent {
  static constexpr std::string_view kType = "merge";
  std::string_view tier;
  std::uint64_t frames_folded = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t raw_bytes = 0;
  int deadline_misses = 0;
  int retransmits = 0;
  int lost_frames = 0;
  double fold_seconds = 0.0;
  static constexpr auto fields() {
    return std::tuple{Field{"tier", &MergeEvent::tier},
                      Field{"frames", &MergeEvent::frames_folded},
                      Field{"bytes", &MergeEvent::bytes_forwarded},
                      Field{"raw", &MergeEvent::raw_bytes},
                      Field{"miss", &MergeEvent::deadline_misses},
                      Field{"retx", &MergeEvent::retransmits},
                      Field{"lost", &MergeEvent::lost_frames},
                      Field{"fold_s", &MergeEvent::fold_seconds}};
  }
};

/// Churn applied around a round: devices admitted and departed, and the
/// fleet size after.
struct ChurnEvent {
  static constexpr std::string_view kType = "churn";
  int arrivals = 0;
  int departures = 0;
  std::uint64_t population = 0;
  static constexpr auto fields() {
    return std::tuple{Field{"in", &ChurnEvent::arrivals},
                      Field{"out", &ChurnEvent::departures},
                      Field{"pop", &ChurnEvent::population}};
  }
};

/// A completed cycle: the strategy's evaluated accuracy, mean training loss
/// and upload volume.
struct RoundEvent {
  static constexpr std::string_view kType = "round";
  std::string_view strategy;
  double accuracy = 0.0;
  double mean_loss = 0.0;
  double upload_mb = 0.0;
  static constexpr auto fields() {
    return std::tuple{Field{"strat", &RoundEvent::strategy},
                      Field{"acc", &RoundEvent::accuracy},
                      Field{"loss", &RoundEvent::mean_loss},
                      Field{"up_mb", &RoundEvent::upload_mb}};
  }
};

class RunJournal {
 public:
  static constexpr int kSchemaVersion = 1;

  /// Journals to `os` (not owned; must outlive the journal). A null stream
  /// produces a disabled journal: every record call returns after one
  /// branch. Writes the run_start line immediately when enabled.
  explicit RunJournal(std::ostream* os);

  /// Resume variant (checkpoint/resume): continues an existing journal whose
  /// first `resumed_events` events are already on disk — no run_start line is
  /// written and the event counter starts at `resumed_events`, so the
  /// eventual run_end's count covers the whole run seamlessly, with no
  /// duplicated or missing events across the crash.
  RunJournal(std::ostream* os, std::uint64_t resumed_events);
  ~RunJournal();

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  bool enabled() const { return os_ != nullptr; }
  std::uint64_t event_count() const { return events_; }

  /// Common stamps carried by every event. `round` / `device` use -1 for
  /// "not applicable"; `vt` is the virtual clock in seconds.
  struct Stamp {
    int round = -1;
    int device = -1;
    double vt = 0.0;
  };

  /// Appends one event line (a no-op when disabled): the stamps, then
  /// Event::fields() in order.
  template <typename Event>
  void record(const Stamp& s, const Event& e) {
    if (os_ == nullptr) return;
    commit(line(s, e, wall_ms()));
  }

  /// Writes the run_end line (once); further events are dropped.
  void close();

 private:
  template <typename Event>
  static std::string line(const Stamp& s, const Event& e, double wall_ms) {
    std::string out = open_line(Event::kType, s, wall_ms);
    std::apply([&](const auto&... f) { (put(out, f.key, e.*f.member), ...); },
               Event::fields());
    out += "}\n";
    return out;
  }
  static std::string open_line(std::string_view type, const Stamp& s,
                               double wall_ms);
  static void put(std::string& out, std::string_view key, long long v);
  static void put(std::string& out, std::string_view key, int v) {
    put(out, key, static_cast<long long>(v));
  }
  static void put(std::string& out, std::string_view key, std::uint64_t v) {
    put(out, key, static_cast<long long>(v));
  }
  static void put(std::string& out, std::string_view key, bool v) {
    put(out, key, v ? 1LL : 0LL);
  }
  static void put(std::string& out, std::string_view key, double v);
  static void put(std::string& out, std::string_view key, std::string_view v);

  /// Appends one finished line under the lock and counts it.
  void commit(const std::string& line);
  double wall_ms() const;

  std::ostream* os_;  // null = disabled
  std::mutex mu_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t events_ = 0;
  bool closed_ = false;
};

}  // namespace helios::obs
