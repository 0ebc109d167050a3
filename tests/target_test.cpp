#include <gtest/gtest.h>

#include <set>

#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/submodel.h"
#include "sim/population.h"
#include "test_support.h"

namespace helios::core {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

fl::Fleet identified_fleet() {
  FleetOptions o;
  o.stragglers = 2;
  fl::Fleet fleet = make_fleet(o);
  for (auto& c : fleet.clients()) c->set_straggler(false);
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  StragglerIdentifier::apply(fleet, report);
  return fleet;
}

TEST(Target, CycleSecondsMonotoneInVolume) {
  fl::Fleet fleet = identified_fleet();
  fl::Client& straggler = fleet.client(3);
  const double t25 = TargetDeterminer::cycle_seconds_at_volume(straggler, 0.25);
  const double t50 = TargetDeterminer::cycle_seconds_at_volume(straggler, 0.5);
  const double t100 = TargetDeterminer::cycle_seconds_at_volume(straggler, 1.0);
  EXPECT_LT(t25, t50);
  EXPECT_LT(t50, t100);
  EXPECT_DOUBLE_EQ(t100, straggler.estimate_cycle_seconds({}));
}

TEST(Target, ProfiledVolumeFitsPace) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  const auto volumes = TargetDeterminer::assign_profiled(fleet, report);
  ASSERT_EQ(volumes.size(), 4u);
  EXPECT_DOUBLE_EQ(volumes[0], 1.0);
  EXPECT_DOUBLE_EQ(volumes[1], 1.0);
  for (std::size_t i = 2; i < 4; ++i) {
    EXPECT_LT(volumes[i], 1.0);
    EXPECT_GE(volumes[i], 0.05);
    // Binary search guarantee: chosen volume's cycle fits the pace (with a
    // small numerical slack), unless clamped at min_volume.
    fl::Client& c = fleet.client(i);
    if (volumes[i] > 0.05 + 1e-9) {
      EXPECT_LE(TargetDeterminer::cycle_seconds_at_volume(c, volumes[i]),
                report.pace_seconds * 1.02);
    }
    EXPECT_DOUBLE_EQ(c.volume(), volumes[i]);
  }
}

TEST(Target, ProfiledVolumeIsMaximalUpToSearchResolution) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  const auto volumes = TargetDeterminer::assign_profiled(fleet, report);
  fl::Client& c = fleet.client(3);
  if (volumes[3] < 0.93 && volumes[3] > 0.06) {
    EXPECT_GT(
        TargetDeterminer::cycle_seconds_at_volume(c, volumes[3] + 0.07),
        report.pace_seconds);
  }
}

TEST(Target, PredefinedLevelsAssignSlowerToSmaller) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  TargetDeterminer::assign_predefined(fleet, report, {0.5, 0.25});
  // Slowest straggler gets the last (most aggressive) level.
  int slowest_id = report.timings.front().client_id;
  double slowest_volume = 0.0, other_volume = 0.0;
  for (auto& c : fleet.clients()) {
    if (!c->is_straggler()) continue;
    if (c->id() == slowest_id) {
      slowest_volume = c->volume();
    } else {
      other_volume = c->volume();
    }
  }
  EXPECT_DOUBLE_EQ(slowest_volume, 0.25);
  EXPECT_DOUBLE_EQ(other_volume, 0.5);
}

TEST(Target, PredefinedRejectsEmptyLevels) {
  fl::Fleet fleet = identified_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  EXPECT_THROW(TargetDeterminer::assign_predefined(fleet, report, {}),
               std::invalid_argument);
}

TEST(Target, ProfileVolumeValidatesArguments) {
  fl::Fleet fleet = identified_fleet();
  fl::Client& c = fleet.client(3);
  EXPECT_THROW(TargetDeterminer::profile_volume(c, 0.0), std::invalid_argument);
  EXPECT_THROW(TargetDeterminer::profile_volume(c, 1.0, 0.0),
               std::invalid_argument);
}

TEST(Target, ImpossiblePaceFallsBackToMinVolume) {
  fl::Fleet fleet = identified_fleet();
  fl::Client& c = fleet.client(3);
  const double v = TargetDeterminer::profile_volume(c, 1e-9, 0.05);
  EXPECT_DOUBLE_EQ(v, 0.05);
}

// A lazy long-tail fleet with its slowest quarter flagged, as population-scale
// runs set it up: every estimate goes through the shared architecture twin.
fl::Fleet lazy_longtail_fleet(int devices, StragglerReport& report) {
  sim::PopulationConfig cfg = sim::mobile_longtail(devices);
  cfg.lazy_data = true;
  fl::Fleet fleet = sim::build_fleet(sim::PopulationGenerator(cfg));
  report = StragglerIdentifier::time_based(fleet, devices / 4);
  StragglerIdentifier::apply(fleet, report);
  return fleet;
}

TEST(Target, MemoizedProfilingMatchesPerClientProfileBitForBit) {
  StragglerReport report;
  fl::Fleet fleet = lazy_longtail_fleet(2048, report);
  const auto volumes = TargetDeterminer::assign_profiled(fleet, report);
  ASSERT_EQ(volumes.size(), fleet.size());
  std::set<double> distinct;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fl::Client& c = fleet.client(i);
    if (!c.is_straggler()) {
      EXPECT_EQ(volumes[i], 1.0) << i;
      continue;
    }
    // profile_volume re-evaluates the masked model on every probe: the
    // unmemoized reference path.
    EXPECT_EQ(volumes[i],
              TargetDeterminer::profile_volume(c, report.pace_seconds))
        << i;
    EXPECT_EQ(c.volume(), volumes[i]) << i;
    distinct.insert(volumes[i]);
  }
  EXPECT_GT(distinct.size(), 10u);  // the memo serves many distinct searches
  for (auto& c : fleet.clients()) EXPECT_FALSE(c->materialized());
}

TEST(Target, CycleSecondsAtVolumeEqualsFirstKMaskEstimate) {
  StragglerReport report;
  fl::Fleet fleet = lazy_longtail_fleet(2048, report);
  for (int id : report.straggler_ids()) {
    if (id % 97 != 0) continue;
    fl::Client& c = *fleet.find_client(id);
    nn::Model& model = c.estimation_model();
    const auto ranges = fl::layer_ranges(model);
    for (double v : {0.05, 0.2, 0.5, 0.731, 0.99}) {
      const auto budgets = fl::layer_budgets(ranges, v);
      std::vector<std::uint8_t> mask(
          static_cast<std::size_t>(model.neuron_total()), 0);
      for (std::size_t l = 0; l < ranges.size(); ++l) {
        for (int j = 0; j < budgets[l]; ++j) {
          mask[static_cast<std::size_t>(ranges[l].begin + j)] = 1;
        }
      }
      EXPECT_EQ(TargetDeterminer::cycle_seconds_at_volume(c, v),
                c.estimate_cycle_seconds(mask))
          << "client " << id << " volume " << v;
    }
  }
}

TEST(Target, DefaultLevelsAreDescendingInRange) {
  const auto& levels = TargetDeterminer::default_levels();
  ASSERT_FALSE(levels.empty());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(levels[i], levels[i - 1]);
  }
  for (double l : levels) {
    EXPECT_GT(l, 0.0);
    EXPECT_LE(l, 1.0);
  }
}

}  // namespace
}  // namespace helios::core
