// helios-journal — the run-journal (flight recorder) CLI.
//
//   helios-journal summary <run.journal.jsonl> [--json]
//       Per-device participation, straggler drift and the loss / retransmit
//       breakdown, aggregated from the event stream. --json emits the
//       machine-readable equivalent.
//
//   helios-journal diff <a.journal.jsonl> <b.journal.jsonl>
//       Field-by-field comparison of the two runs' summaries. Exit 1 when
//       the runs differ, 0 when they agree.
//
//   helios-journal replay <run.journal.jsonl> [--threshold N]
//       Replays the journal into a StragglerDashboard and renders it — the
//       same per-device / percentile table a live run prints. --threshold
//       overrides the per-device vs fleet-summary cutover; N is a
//       non-negative integer, anything else is an error.
//
//   helios-journal resume-check <run.journal.jsonl>
//       Validates that a journal spanning one or more checkpoint resumes
//       reads as a single seamless run: exactly one run_start, round events
//       contiguous from 0 with no duplicates (a duplicate means a resume
//       replayed a round the checkpoint already recorded; a gap means the
//       journal was reopened at the wrong byte offset), and nothing after
//       run_end. Exit 1 on any drift.
//
// Journals aggregate per device before summarizing, so recordings of the
// same run at different thread counts (whose lines interleave differently)
// summarize and diff as identical.
#include <charconv>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/journal_reader.h"

namespace {

using namespace helios;

int usage() {
  std::cerr << "usage: helios-journal summary <run.journal.jsonl> [--json]\n"
            << "       helios-journal diff <a.jsonl> <b.jsonl>\n"
            << "       helios-journal replay <run.journal.jsonl>"
            << " [--threshold N]\n"
            << "       helios-journal resume-check <run.journal.jsonl>\n";
  return 2;
}

/// The resume-check drift rules (see the header comment). Returns the
/// number of problems found, printing each.
int resume_check(const std::vector<obs::JournalEvent>& events) {
  int problems = 0;
  auto complain = [&](const std::string& what) {
    std::cout << "DRIFT: " << what << "\n";
    ++problems;
  };
  if (events.empty()) {
    complain("journal is empty");
    return problems;
  }
  int run_starts = 0;
  int run_ends = 0;
  bool after_end = false;
  int next_round = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JournalEvent& ev = events[i];
    if (run_ends > 0 && !after_end && ev.type != "run_end") {
      complain("event " + std::to_string(i) + " (" + ev.type +
               ") after run_end");
      after_end = true;  // report the first offender once
    }
    if (ev.type == "run_start") {
      ++run_starts;
      if (i != 0) {
        complain("run_start at event " + std::to_string(i) +
                 " (a resume must continue the journal, not restart it)");
      }
    } else if (ev.type == "run_end") {
      ++run_ends;
    } else if (ev.type == "round") {
      if (ev.round == next_round) {
        ++next_round;
      } else if (ev.round < next_round) {
        complain("duplicate round " + std::to_string(ev.round) +
                 " (resume replayed an already-recorded round)");
      } else {
        complain("round gap: expected " + std::to_string(next_round) +
                 ", found " + std::to_string(ev.round) +
                 " (journal reopened at the wrong offset)");
        next_round = ev.round + 1;
      }
    }
  }
  if (run_starts == 0) complain("no run_start event");
  if (run_ends > 1) {
    complain(std::to_string(run_ends) +
             " run_end events (each resume must truncate the tail)");
  }
  if (next_round == 0) complain("no round events");
  if (problems == 0) {
    std::cout << "ok: " << events.size() << " events, rounds 0.."
              << next_round - 1 << " contiguous, single run\n";
  }
  return problems;
}

/// The value of `--threshold`: a non-negative decimal integer and nothing
/// else (no sign, no trailing characters).
std::size_t parse_threshold(const std::string& text) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || at != end) {
    throw std::runtime_error(
        "replay --threshold wants a non-negative integer, got '" + text +
        "'");
  }
  return value;
}

std::vector<obs::JournalEvent> load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open " + path);
  return obs::read_journal(is);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  try {
    if (cmd == "summary") {
      if (args.size() < 2) return usage();
      const bool json = args.size() > 2 && args[2] == "--json";
      const obs::JournalSummary s = obs::summarize_journal(load(args[1]));
      if (json) {
        obs::write_summary_json(std::cout, s);
      } else {
        obs::write_summary(std::cout, s);
      }
      return 0;
    }
    if (cmd == "diff") {
      if (args.size() < 3) return usage();
      const obs::JournalSummary a = obs::summarize_journal(load(args[1]));
      const obs::JournalSummary b = obs::summarize_journal(load(args[2]));
      const int differing = obs::write_diff(std::cout, a, b);
      if (differing == 0) return 0;
      std::cout << differing << " field(s) differ\n";
      return 1;
    }
    if (cmd == "resume-check") {
      if (args.size() < 2) return usage();
      return resume_check(load(args[1])) == 0 ? 0 : 1;
    }
    if (cmd == "replay") {
      if (args.size() < 2) return usage();
      obs::StragglerDashboard dash;
      for (std::size_t i = 2; i < args.size(); ++i) {
        if (args[i] != "--threshold") continue;
        if (i + 1 == args.size()) {
          throw std::runtime_error("replay --threshold needs a value");
        }
        dash.set_summary_threshold(parse_threshold(args[++i]));
      }
      obs::replay_dashboard(load(args[1]), dash);
      dash.render(std::cout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "helios-journal: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
