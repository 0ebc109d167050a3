#include "core/straggler_id.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace helios::core {

std::vector<int> StragglerReport::straggler_ids() const {
  std::vector<int> out;
  for (const auto& t : timings) {
    if (t.straggler) out.push_back(t.client_id);
  }
  return out;
}

namespace {

StragglerReport build_report(std::vector<DeviceTiming> timings) {
  // Slowest first — the paper's index T with T_1 the longest time cost.
  std::sort(timings.begin(), timings.end(),
            [](const DeviceTiming& a, const DeviceTiming& b) {
              return a.seconds > b.seconds;
            });
  StragglerReport report;
  report.timings = std::move(timings);
  return report;
}

void fill_pace(StragglerReport& report) {
  report.pace_seconds = 0.0;
  for (const auto& t : report.timings) {
    if (!t.straggler) {
      report.pace_seconds = std::max(report.pace_seconds, t.seconds);
    }
  }
}

}  // namespace

StragglerReport StragglerIdentifier::time_based(fl::Fleet& fleet, int top_k,
                                                int testbench_iterations) {
  if (fleet.size() == 0) throw std::logic_error("time_based: empty fleet");
  if (top_k < 0 || static_cast<std::size_t>(top_k) >= fleet.size()) {
    throw std::invalid_argument(
        "time_based: top_k must leave at least one capable device");
  }
  std::vector<DeviceTiming> timings;
  for (auto& c : fleet.clients()) {
    timings.push_back({c->id(), c->testbench_seconds(testbench_iterations),
                       false});
  }
  StragglerReport report = build_report(std::move(timings));
  for (int i = 0; i < top_k; ++i) {
    report.timings[static_cast<std::size_t>(i)].straggler = true;
  }
  fill_pace(report);
  return report;
}

StragglerReport StragglerIdentifier::resource_based(fl::Fleet& fleet,
                                                    double pace_factor) {
  if (fleet.size() == 0) throw std::logic_error("resource_based: empty fleet");
  if (pace_factor <= 1.0) {
    throw std::invalid_argument("resource_based: pace_factor must be > 1");
  }
  std::vector<DeviceTiming> timings;
  double fastest = std::numeric_limits<double>::infinity();
  for (auto& c : fleet.clients()) {
    const double t = c->estimate_cycle_seconds({});
    fastest = std::min(fastest, t);
    timings.push_back({c->id(), t, false});
  }
  StragglerReport report = build_report(std::move(timings));
  for (auto& t : report.timings) {
    t.straggler = t.seconds > pace_factor * fastest;
  }
  // Degenerate guard: never flag every device.
  if (std::all_of(report.timings.begin(), report.timings.end(),
                  [](const DeviceTiming& t) { return t.straggler; })) {
    report.timings.back().straggler = false;  // fastest device stays capable
  }
  fill_pace(report);
  return report;
}

void StragglerIdentifier::apply(fl::Fleet& fleet,
                                const StragglerReport& report) {
  for (const auto& t : report.timings) {
    if (fl::Client* c = fleet.find_client(t.client_id)) {
      c->set_straggler(t.straggler);
    }
  }
}

}  // namespace helios::core
