// Offline reduction of an in-memory Chrome trace (obs::TraceWriter output)
// into per-round span totals.
//
// The writer emits one event per line. B/E pairs are matched per thread id
// with a stack, which yields each span's duration and its self time (the
// duration minus the part its child spans cover). Spans on any thread are
// assigned to a round by where their begin falls among the benchmark's own
// `bench.round` spans, so pool-worker spans (client cycles, kernels) land in
// the round that fanned them out.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace helios::benchmark {

struct Span {
  std::string name;
  int tid = 0;
  double begin_us = 0.0;
  double dur_us = 0.0;
  double self_us = 0.0;
  /// The "round" argument (bench.round spans only; -1 otherwise).
  int round = -1;
};

/// Parses every matched B/E pair on the wall-clock tracks (pid 1).
/// Throws std::runtime_error on an unbalanced trace.
std::vector<Span> parse_spans(std::string_view trace_text);

/// Span totals of one bench.round window, in seconds.
struct RoundSpans {
  int round = -1;
  int tid = 0;  ///< the driving thread
  double wall = 0.0;
  std::map<std::string, double> total;  ///< summed durations, all threads
  std::map<std::string, double> self;   ///< summed self times, driving thread
  double total_of(std::string_view name) const;
  double self_of(std::string_view name) const;
};

/// Groups spans by bench.round window (ordered by round).
std::vector<RoundSpans> spans_by_round(const std::vector<Span>& spans);

/// Summed duration (seconds) of every span named `name`.
double total_seconds(const std::vector<Span>& spans, std::string_view name);

}  // namespace helios::benchmark
