#include "trace_stats.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <unordered_map>

namespace helios::benchmark {
namespace {

/// The raw text after `"key":` on `line`, or empty when absent.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pat = "\"";
  pat.append(key);
  pat += "\":";
  const std::size_t at = line.find(pat);
  if (at == std::string_view::npos) return {};
  return line.substr(at + pat.size());
}

std::string_view string_field(std::string_view line, std::string_view key) {
  std::string_view v = field(line, key);
  if (v.empty() || v.front() != '"') return {};
  v.remove_prefix(1);
  return v.substr(0, v.find('"'));
}

double number_field(std::string_view line, std::string_view key,
                    double fallback) {
  const std::string_view v = field(line, key);
  if (v.empty()) return fallback;
  // strtod stops at the first non-numeric character (',' or '}').
  const std::string s(v.substr(0, v.find_first_of(",}")));
  return std::strtod(s.c_str(), nullptr);
}

}  // namespace

std::vector<Span> parse_spans(std::string_view text) {
  struct Open {
    Span span;
    double child_us = 0.0;
  };
  std::unordered_map<int, std::vector<Open>> stacks;
  std::vector<Span> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    const std::string_view ph = string_field(line, "ph");
    if (ph != "B" && ph != "E") continue;
    if (number_field(line, "pid", -1) != 1) continue;
    const int tid = static_cast<int>(number_field(line, "tid", -1));
    const double ts = number_field(line, "ts", 0.0);
    auto& stack = stacks[tid];
    if (ph == "B") {
      Open o;
      o.span.name = std::string(string_field(line, "name"));
      o.span.tid = tid;
      o.span.begin_us = ts;
      if (o.span.name == "bench.round") {
        o.span.round = static_cast<int>(number_field(line, "round", -1));
      }
      stack.push_back(std::move(o));
      continue;
    }
    if (stack.empty()) throw std::runtime_error("trace: E without B");
    Open o = std::move(stack.back());
    stack.pop_back();
    o.span.dur_us = ts - o.span.begin_us;
    o.span.self_us = o.span.dur_us - o.child_us;
    if (!stack.empty()) stack.back().child_us += o.span.dur_us;
    out.push_back(std::move(o.span));
  }
  for (const auto& [tid, stack] : stacks) {
    if (!stack.empty()) throw std::runtime_error("trace: unclosed span");
  }
  return out;
}

double RoundSpans::total_of(std::string_view name) const {
  const auto it = total.find(std::string(name));
  return it == total.end() ? 0.0 : it->second;
}

double RoundSpans::self_of(std::string_view name) const {
  const auto it = self.find(std::string(name));
  return it == self.end() ? 0.0 : it->second;
}

std::vector<RoundSpans> spans_by_round(const std::vector<Span>& spans) {
  std::vector<const Span*> rounds;
  for (const Span& s : spans) {
    if (s.name == "bench.round") rounds.push_back(&s);
  }
  std::sort(rounds.begin(), rounds.end(), [](const Span* a, const Span* b) {
    return a->begin_us < b->begin_us;
  });
  std::vector<RoundSpans> out(rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    out[i].round = rounds[i]->round;
    out[i].tid = rounds[i]->tid;
    out[i].wall = rounds[i]->dur_us * 1e-6;
  }
  for (const Span& s : spans) {
    // The last round window starting at or before the span's begin.
    const auto it = std::upper_bound(
        rounds.begin(), rounds.end(), s.begin_us,
        [](double t, const Span* r) { return t < r->begin_us; });
    if (it == rounds.begin()) continue;
    const Span& r = **(it - 1);
    if (s.begin_us > r.begin_us + r.dur_us) continue;  // between rounds
    RoundSpans& rs = out[static_cast<std::size_t>(it - 1 - rounds.begin())];
    rs.total[s.name] += s.dur_us * 1e-6;
    if (s.tid == rs.tid) rs.self[s.name] += s.self_us * 1e-6;
  }
  std::sort(out.begin(), out.end(),
            [](const RoundSpans& a, const RoundSpans& b) {
              return a.round < b.round;
            });
  return out;
}

double total_seconds(const std::vector<Span>& spans, std::string_view name) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.name == name) sum += s.dur_us * 1e-6;
  }
  return sum;
}

}  // namespace helios::benchmark
