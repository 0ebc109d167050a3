// Population-scale benchmark: how does throughput and memory behave as the
// fleet grows from the paper's testbed size to a sampled population?
//
// Two tables:
//
//  * flat points: fleet sizes 8 / 64 / 256 / 1024 (mobile-longtail
//    preset, cohort sampling at C = max(0.05, 4/N), 5 rounds), Helios and
//    Syn. FL each reporting rounds per wall-clock second, the peak
//    live-replica footprint (the sum of materialized client models — the
//    memory the lazy-client design is bounding), and process peak RSS.
//
//  * hierarchy: Helios through a depth-3 aggregator tree (64 edges,
//    fanout 8) on lazy-data populations of 8k up to 256k devices at
//    C = max(0.01, 8/N) — the O(100k)-device regime the streaming tree
//    exists for. Each row reports rounds/s, per-tier fold time and the
//    resident set's drift across rounds, which must stay flat: root memory
//    is bounded by the accumulator geometry, not the population. The
//    100k-device row's flatness is a tier-1 test:
//    `ScaleSmokeTest.HundredThousandDeviceTreeKeepsRssFlat`.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/hierarchy.h"
#include "obs/procstat.h"
#include "sim/population.h"
#include "sim/sampler.h"
#include "util/table.h"

namespace {

using namespace helios;

struct ScaleStats {
  double accuracy = 0.0;
  double wall_seconds = 0.0;      // the strategy run itself
  double rounds_per_second = 0.0;
  double peak_replica_mb = 0.0;   // max over rounds of live replica bytes
  double peak_rss_mb = 0.0;       // process-wide (monotone across runs)
};

ScaleStats run_once(const std::string& method, int devices, int cycles) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(devices));
  fl::Fleet fleet = sim::build_fleet(pop);
  // Flag the slowest quarter (rank-based suits a long tail) and assign
  // profiled volumes — all analytic, no replica materializes for this.
  const core::StragglerReport report = core::StragglerIdentifier::time_based(
      fleet, std::max(1, devices / 4));
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  sim::CohortSampler::Options sopts;
  sopts.fraction = std::max(0.05, 4.0 / devices);
  sopts.seed = 29;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  auto strategy = bench::make_strategy(method);
  ScaleStats s;
  // The hook fires at each cycle start, after the previous round's cohort
  // hibernated but while its replicas were still live a moment ago — the
  // peak is whatever the largest cohort materialized.
  std::size_t peak_bytes = 0;
  if (auto* helios = dynamic_cast<core::HeliosStrategy*>(strategy.get())) {
    helios->set_cycle_hook([&](fl::Fleet& f, int) {
      peak_bytes = std::max(peak_bytes, f.live_replica_bytes());
    });
  }
  const auto t0 = std::chrono::steady_clock::now();
  const fl::RunResult result = strategy->run(fleet, cycles);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  peak_bytes = std::max(peak_bytes, fleet.live_replica_bytes());
  s.accuracy = result.final_accuracy();
  s.wall_seconds = wall.count();
  s.rounds_per_second =
      wall.count() > 0.0 ? static_cast<double>(cycles) / wall.count() : 0.0;
  s.peak_replica_mb = static_cast<double>(peak_bytes) / 1e6;
  s.peak_rss_mb = obs::read_proc_memory().peak_rss_mb;
  fleet.set_sampler(nullptr);
  return s;
}

struct TreeScaleStats {
  double wall_seconds = 0.0;
  double rounds_per_second = 0.0;
  double peak_replica_mb = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<double> round_rss_mb; // resident set after each round
  double rss_growth_mb = 0.0;       // last - first round (flatness claim)
  double edge_fold_seconds = 0.0;
  double regional_fold_seconds = 0.0;
  double root_fold_seconds = 0.0;
  std::size_t cohort_devices = 0;   // materialized after the last round
};

// Helios through a depth-3 edge -> regional -> root tree on a lazy-data
// long-tail population. No simulated network: this measures the
// aggregation path itself (fold / collapse / finalize), which is where
// tree scaling shows up.
TreeScaleStats run_tree_once(int devices, int cycles, int edge_nodes,
                             int fanout) {
  sim::PopulationConfig cfg = sim::mobile_longtail(devices);
  cfg.lazy_data = true;  // sample memory follows the cohort, not the fleet
  const sim::PopulationGenerator pop(cfg);
  fl::Fleet fleet = sim::build_fleet(pop);
  const core::StragglerReport report = core::StragglerIdentifier::time_based(
      fleet, std::max(1, devices / 4));
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  sim::CohortSampler::Options sopts;
  sopts.fraction = std::max(0.01, 8.0 / devices);
  sopts.seed = 29;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  agg::TreeTopology topo;
  topo.edge_nodes = edge_nodes;
  topo.fanout = fanout;
  fl::HierarchySession hier(fleet, topo);

  auto strategy = bench::make_strategy("Helios");
  TreeScaleStats s;
  // Per-tier rollups survive until the next round's begin_round, so the
  // cycle hook (firing at each round start) harvests the previous round;
  // one more harvest after the run collects the final round.
  auto harvest = [&] {
    for (const agg::TierStats& t : hier.tree().tier_stats()) {
      const std::string_view tier = t.tier;
      if (tier == "edge") {
        s.edge_fold_seconds += t.fold_seconds;
      } else if (tier == "regional") {
        s.regional_fold_seconds += t.fold_seconds;
      } else {
        s.root_fold_seconds += t.fold_seconds;
      }
    }
  };
  std::size_t peak_bytes = 0;
  auto* helios = dynamic_cast<core::HeliosStrategy*>(strategy.get());
  helios->set_cycle_hook([&](fl::Fleet& f, int cycle) {
    peak_bytes = std::max(peak_bytes, f.live_replica_bytes());
    if (cycle > 0) {
      s.round_rss_mb.push_back(obs::read_proc_memory().rss_mb);
      harvest();
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  strategy->run(fleet, cycles);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  harvest();
  s.round_rss_mb.push_back(obs::read_proc_memory().rss_mb);
  peak_bytes = std::max(peak_bytes, fleet.live_replica_bytes());
  for (auto& c : fleet.clients()) {
    s.cohort_devices += c->materialized() ? 1 : 0;
  }
  s.wall_seconds = wall.count();
  s.rounds_per_second =
      wall.count() > 0.0 ? static_cast<double>(cycles) / wall.count() : 0.0;
  s.peak_replica_mb = static_cast<double>(peak_bytes) / 1e6;
  s.peak_rss_mb = obs::read_proc_memory().peak_rss_mb;
  s.rss_growth_mb = s.round_rss_mb.back() - s.round_rss_mb.front();
  fleet.set_sampler(nullptr);
  return s;
}

}  // namespace

int main() {
  const bench::Scale scale = bench::scale_from_env();
  // Quick scale stops at 256 devices; default and full run the 1024-device
  // point the acceptance run tracks (5 Helios rounds in well under a
  // minute).
  std::vector<int> sizes = {8, 64, 256};
  if (scale.name != "quick") sizes.push_back(1024);
  const int cycles = 5;
  const std::vector<std::string> methods = {"Helios", "Syn. FL"};

  util::Table table({"devices", "method", "rounds/s", "wall (s)",
                     "peak replicas (MB)", "full fleet (MB)", "peak RSS (MB)",
                     "final acc (%)"});
  for (const int devices : sizes) {
    // What the whole population would occupy if every client held a live
    // replica — the bound the lazy-materialization design avoids.
    const sim::PopulationGenerator pop(sim::mobile_longtail(devices));
    nn::Model probe = pop.config().model.build(1);
    const double full_fleet_mb =
        static_cast<double>(probe.param_count() * 2 + probe.buffer_count()) *
        sizeof(float) * devices / 1e6;

    for (const std::string& method : methods) {
      const ScaleStats s = run_once(method, devices, cycles);
      table.add_row({std::to_string(devices), method,
                     util::Table::num(s.rounds_per_second, 2),
                     util::Table::num(s.wall_seconds, 2),
                     util::Table::num(s.peak_replica_mb, 2),
                     util::Table::num(full_fleet_mb, 2),
                     util::Table::num(s.peak_rss_mb, 1),
                     util::Table::num(s.accuracy * 100.0, 2)});
    }
  }

  // Hierarchical section: the O(100k)-device regime. The 100k point runs at
  // every scale — it is the acceptance row showing flat per-round RSS; the
  // 64k / 256k points fill the scaling curve at default / full.
  std::vector<int> tree_sizes = {8192};
  if (scale.name != "quick") tree_sizes.push_back(65536);
  tree_sizes.push_back(100000);
  if (scale.name == "full") tree_sizes.push_back(262144);
  const int tree_cycles = 3;
  const int kEdges = 64;
  const int kFanout = 8;

  util::Table tree_table({"devices", "rounds/s", "wall (s)", "cohort",
                          "peak replicas (MB)", "peak RSS (MB)",
                          "fold e/r/root (ms)", "RSS drift (MB)"});
  for (const int devices : tree_sizes) {
    const TreeScaleStats s =
        run_tree_once(devices, tree_cycles, kEdges, kFanout);
    std::ostringstream fold;
    fold << util::Table::num(s.edge_fold_seconds * 1e3, 1) << " / "
         << util::Table::num(s.regional_fold_seconds * 1e3, 1) << " / "
         << util::Table::num(s.root_fold_seconds * 1e3, 1);
    tree_table.add_row({std::to_string(devices),
                        util::Table::num(s.rounds_per_second, 2),
                        util::Table::num(s.wall_seconds, 2),
                        std::to_string(s.cohort_devices),
                        util::Table::num(s.peak_replica_mb, 2),
                        util::Table::num(s.peak_rss_mb, 1), fold.str(),
                        util::Table::num(s.rss_growth_mb, 2)});
  }

  util::print_banner(std::cout,
                     "Population scale: rounds/s and memory, Helios vs "
                     "Syn. FL (mobile-longtail, C = max(0.05, 4/N))");
  table.print(std::cout);
  util::print_banner(std::cout,
                     "Hierarchical aggregation: Helios through a depth-3 "
                     "tree (64 edges x fanout 8, lazy data, C = max(0.01, "
                     "8/N))");
  tree_table.print(std::cout);
  return 0;
}
