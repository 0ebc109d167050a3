#include <gtest/gtest.h>

#include "core/straggler_id.h"
#include "test_support.h"

namespace helios::core {
namespace {

using helios::testing::FleetOptions;
using helios::testing::make_fleet;

FleetOptions unflagged() {
  FleetOptions o;
  o.stragglers = 2;  // clients 2,3 get slow profiles
  return o;
}

fl::Fleet fresh_fleet() {
  fl::Fleet fleet = make_fleet(unflagged());
  // Clear the helper's pre-flagging: identification is under test here.
  for (auto& c : fleet.clients()) {
    c->set_straggler(false);
  }
  return fleet;
}

TEST(TimeBased, RanksSlowestFirst) {
  fl::Fleet fleet = fresh_fleet();
  const StragglerReport report =
      StragglerIdentifier::time_based(fleet, /*top_k=*/2);
  ASSERT_EQ(report.timings.size(), 4u);
  for (std::size_t i = 1; i < report.timings.size(); ++i) {
    EXPECT_GE(report.timings[i - 1].seconds, report.timings[i].seconds);
  }
  // The two DeepLens-profile clients (ids 2, 3) are the slowest.
  auto ids = report.straggler_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{2, 3}));
}

TEST(TimeBased, TopKBoundsValidated) {
  fl::Fleet fleet = fresh_fleet();
  EXPECT_THROW(StragglerIdentifier::time_based(fleet, 4),
               std::invalid_argument);
  EXPECT_THROW(StragglerIdentifier::time_based(fleet, -1),
               std::invalid_argument);
  // top_k = 0 is legal: no stragglers.
  const auto report = StragglerIdentifier::time_based(fleet, 0);
  EXPECT_TRUE(report.straggler_ids().empty());
}

TEST(ResourceBased, FlagsSlowDevices) {
  fl::Fleet fleet = fresh_fleet();
  const StragglerReport report =
      StragglerIdentifier::resource_based(fleet, 1.5);
  auto ids = report.straggler_ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{2, 3}));
  EXPECT_GT(report.pace_seconds, 0.0);
}

TEST(ResourceBased, PaceIsSlowestCapableDevice) {
  fl::Fleet fleet = fresh_fleet();
  const StragglerReport report =
      StragglerIdentifier::resource_based(fleet, 1.5);
  double expected = 0.0;
  for (const auto& t : report.timings) {
    if (!t.straggler) expected = std::max(expected, t.seconds);
  }
  EXPECT_DOUBLE_EQ(report.pace_seconds, expected);
}

TEST(ResourceBased, NeverFlagsEveryone) {
  FleetOptions o;
  o.clients = 3;
  o.stragglers = 3;  // all slow profiles
  fl::Fleet fleet = make_fleet(o);
  for (auto& c : fleet.clients()) c->set_straggler(false);
  const auto report = StragglerIdentifier::resource_based(fleet, 1.01);
  int flagged = 0;
  for (const auto& t : report.timings) flagged += t.straggler;
  EXPECT_LT(flagged, 3);
}

TEST(ResourceBased, PaceFactorValidated) {
  fl::Fleet fleet = fresh_fleet();
  EXPECT_THROW(StragglerIdentifier::resource_based(fleet, 1.0),
               std::invalid_argument);
}

TEST(Apply, WritesFlagsOntoClients) {
  fl::Fleet fleet = fresh_fleet();
  const auto report = StragglerIdentifier::resource_based(fleet, 1.5);
  StragglerIdentifier::apply(fleet, report);
  EXPECT_FALSE(fleet.client(0).is_straggler());
  EXPECT_FALSE(fleet.client(1).is_straggler());
  EXPECT_TRUE(fleet.client(2).is_straggler());
  EXPECT_TRUE(fleet.client(3).is_straggler());
}

TEST(Apply, PartialReportLeavesUnreportedClientsUntouched) {
  fl::Fleet fleet = fresh_fleet();
  fleet.client(1).set_straggler(true);
  StragglerReport report;
  // Clients 1 and 2 are absent; unknown ids are ignored.
  report.timings = {{3, 9.0, true}, {-1, 8.0, true}, {4, 7.0, true},
                    {0, 1.0, false}};
  StragglerIdentifier::apply(fleet, report);
  EXPECT_FALSE(fleet.client(0).is_straggler());
  EXPECT_TRUE(fleet.client(1).is_straggler());
  EXPECT_FALSE(fleet.client(2).is_straggler());
  EXPECT_TRUE(fleet.client(3).is_straggler());
}

TEST(TimeBasedAndResourceBased, AgreeOnThisFleet) {
  fl::Fleet fleet = fresh_fleet();
  auto a = StragglerIdentifier::time_based(fleet, 2).straggler_ids();
  auto b = StragglerIdentifier::resource_based(fleet, 1.5).straggler_ids();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace helios::core
