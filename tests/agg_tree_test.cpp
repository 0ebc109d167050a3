// The hierarchical aggregation subsystem (src/agg + fl::HierarchySession).
//
// The load-bearing contract: a single-edge tree routes every update through
// encode-frame -> fold -> collapse -> finalize and still reproduces the flat
// server path BIT FOR BIT, for every strategy, at 1 and 4 threads — merging
// one child into zero-initialized accumulators is exact (0 + x == x), and
// the merge-frame round trip is raw IEEE bits. Multi-edge trees differ only
// in floating-point summation order and stay bit-identical across thread
// counts, and Helios' U^ij bookkeeping reads what the server aggregated, so
// it matches too, under a lossy codec as well. On top of that:
// weight-carrying renormalization when a tier drops a frame, and
// checkpointable cross-round channel state.
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "codec/codec.h"
#include "core/helios_strategy.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/baselines.h"
#include "fl/checkpoint.h"
#include "fl/compression.h"
#include "fl/fedprox.h"
#include "fl/hierarchy.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "models/zoo.h"
#include "net/wire.h"
#include "obs/journal_reader.h"
#include "obs/telemetry.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace helios {
namespace {

namespace fs = std::filesystem;

struct ThreadGuard {
  ~ThreadGuard() { util::set_global_threads(0); }
};

// ---- Topology ---------------------------------------------------------------

TEST(TreeTopologyTest, DepthPlacementAndRegionalGrouping) {
  agg::TreeTopology flat;
  EXPECT_FALSE(flat.active());
  EXPECT_EQ(flat.depth(), 1);

  agg::TreeTopology depth2;
  depth2.edge_nodes = 8;
  EXPECT_TRUE(depth2.active());
  EXPECT_EQ(depth2.depth(), 2);
  EXPECT_EQ(depth2.regional_nodes(), 0);

  agg::TreeTopology depth3;
  depth3.edge_nodes = 8;
  depth3.fanout = 3;
  EXPECT_EQ(depth3.depth(), 3);
  EXPECT_EQ(depth3.regional_nodes(), 3);  // ceil(8 / 3)
  EXPECT_EQ(depth3.regional_of(0), 0);
  EXPECT_EQ(depth3.regional_of(5), 1);
  EXPECT_EQ(depth3.regional_of(7), 2);

  // Placement is a pure function of the id: stable under churn and resume.
  for (int id = 0; id < 40; ++id) {
    const int e = depth3.edge_of(id);
    EXPECT_GE(e, 0);
    EXPECT_LT(e, depth3.edge_nodes);
    EXPECT_EQ(e, depth3.edge_of(id));
  }
  // fanout >= edge_nodes collapses the regional tier.
  agg::TreeTopology wide = depth3;
  wide.fanout = 8;
  EXPECT_EQ(wide.depth(), 2);
}

// ---- Accumulator + merge frames ---------------------------------------------

/// Geometry + synthetic masked updates for accumulator unit tests.
struct AccFixture {
  fl::Fleet fleet = testing::make_fleet();
  const agg::ModelGeometry& geo = fleet.server().geometry();

  struct Update {
    std::vector<float> params;
    std::vector<float> buffers;
    std::vector<std::uint8_t> mask;
  };

  /// `integral` draws integer-valued floats so double sums are exact and
  /// reassociation (tree merges) cannot change them.
  Update make_update(std::uint64_t seed, bool masked, bool integral) const {
    util::Rng rng(seed);
    Update u;
    u.params.resize(geo.param_count);
    u.buffers.resize(geo.buffer_count);
    for (auto& v : u.params) {
      v = integral ? static_cast<float>(rng.uniform_int(17) - 8)
                   : static_cast<float>(rng.normal());
    }
    for (auto& v : u.buffers) {
      v = integral ? static_cast<float>(rng.uniform_int(9))
                   : static_cast<float>(rng.normal());
    }
    if (masked) {
      u.mask.resize(geo.neurons.size());
      for (auto& b : u.mask) b = rng.uniform_int(2) != 0;
    }
    return u;
  }

  static agg::UpdateView view(int id, const Update& u) {
    return {id, u.params, u.buffers, u.mask};
  }
};

TEST(StreamingAccumulatorTest, MergeFrameRoundTripIsBitExact) {
  AccFixture fx;
  agg::StreamingAccumulator acc(&fx.geo);
  const AccFixture::Update a = fx.make_update(3, true, false);
  const AccFixture::Update b = fx.make_update(4, false, false);
  acc.fold(AccFixture::view(0, a), {1.0, 0.75}, true);
  acc.fold(AccFixture::view(1, b), {2.0, 1.25}, true);

  const std::vector<std::uint8_t> frame = acc.encode_frame();
  EXPECT_EQ(frame.size(), agg::StreamingAccumulator::frame_bytes(fx.geo));
  // The f64 merge frame's bytes, pinned when merge frames still carried a
  // codec word; it is a reserved zero now, so the bytes must not move.
  EXPECT_EQ(testing::fnv1a(frame), 0x67d6dc3f66da71e2ULL)
      << "0x" << std::hex << testing::fnv1a(frame);
  const agg::StreamingAccumulator back =
      agg::StreamingAccumulator::decode_frame(frame, &fx.geo);
  EXPECT_EQ(back.folded(), 2U);
  ASSERT_EQ(back.acc().size(), acc.acc().size());
  EXPECT_EQ(std::memcmp(back.acc().data(), acc.acc().data(),
                        acc.acc().size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(back.den().data(), acc.den().data(),
                        acc.den().size() * sizeof(double)),
            0);
  EXPECT_TRUE(testing::bitwise_equal(back.buffer_acc(), acc.buffer_acc()));
  EXPECT_EQ(back.buffer_den(), acc.buffer_den());
}

TEST(StreamingAccumulatorTest, CorruptedFrameIsRejected) {
  AccFixture fx;
  agg::StreamingAccumulator acc(&fx.geo);
  acc.fold(AccFixture::view(0, fx.make_update(5, true, false)), {1.0, 1.0},
           true);
  std::vector<std::uint8_t> frame = acc.encode_frame();

  std::vector<std::uint8_t> flipped = frame;
  flipped[frame.size() / 2] ^= 0x40;
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(flipped, &fx.geo),
               net::WireError);

  std::vector<std::uint8_t> truncated(frame.begin(), frame.end() - 8);
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(truncated, &fx.geo),
               net::WireError);

  std::vector<std::uint8_t> bad_magic = frame;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(agg::StreamingAccumulator::decode_frame(bad_magic, &fx.geo),
               net::WireError);
}

TEST(StreamingAccumulatorTest, MergeIntoEmptyParentIsBitIdenticalToFold) {
  AccFixture fx;
  const AccFixture::Update a = fx.make_update(6, true, false);
  const AccFixture::Update b = fx.make_update(7, true, false);

  agg::StreamingAccumulator direct(&fx.geo);
  direct.fold(AccFixture::view(0, a), {1.0, 0.5}, true);
  direct.fold(AccFixture::view(1, b), {1.5, 2.0}, true);

  agg::StreamingAccumulator child(&fx.geo);
  child.fold(AccFixture::view(0, a), {1.0, 0.5}, true);
  child.fold(AccFixture::view(1, b), {1.5, 2.0}, true);
  agg::StreamingAccumulator root(&fx.geo);
  root.merge(child);  // 0 + x == x: exact

  std::vector<float> g1(fx.geo.param_count, 0.0F);
  std::vector<float> b1(fx.geo.buffer_count, 0.0F);
  std::vector<float> g2 = g1;
  std::vector<float> b2 = b1;
  direct.finalize(g1, b1);
  root.finalize(g2, b2);
  EXPECT_EQ(std::memcmp(g1.data(), g2.data(), g1.size() * sizeof(float)), 0);
  EXPECT_TRUE(testing::bitwise_equal(b1, b2));
  EXPECT_EQ(root.folded(), 2U);
}

// fold(A ++ B) == merge(fold(A), fold(B)) as mathematical sums; with
// integer-valued inputs the double arithmetic is exact, so the equality is
// bitwise even though the summation order differs.
TEST(StreamingAccumulatorTest, SplitFoldMergesExactlyOnIntegralInputs) {
  AccFixture fx;
  std::vector<AccFixture::Update> updates;
  for (std::uint64_t s = 0; s < 6; ++s) {
    updates.push_back(fx.make_update(20 + s, s % 2 == 0, true));
  }

  agg::StreamingAccumulator flat(&fx.geo);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    flat.fold(AccFixture::view(static_cast<int>(i), updates[i]), {1.0, 2.0},
              true);
  }

  agg::StreamingAccumulator left(&fx.geo);
  agg::StreamingAccumulator right(&fx.geo);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    auto& edge = (i < 3) ? left : right;
    edge.fold(AccFixture::view(static_cast<int>(i), updates[i]), {1.0, 2.0},
              true);
  }
  agg::StreamingAccumulator root(&fx.geo);
  root.merge(left);
  root.merge(right);

  EXPECT_EQ(root.folded(), flat.folded());
  EXPECT_EQ(std::memcmp(root.acc().data(), flat.acc().data(),
                        flat.acc().size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(root.den().data(), flat.den().data(),
                        flat.den().size() * sizeof(double)),
            0);
}

// Weight-carrying renormalization: dropping a child and finalizing equals
// aggregating only the surviving children — no reweighting pass needed.
TEST(StreamingAccumulatorTest, DroppedChildRenormalizesExactly) {
  AccFixture fx;
  const AccFixture::Update a = fx.make_update(30, true, false);
  const AccFixture::Update b = fx.make_update(31, true, false);

  agg::StreamingAccumulator survivor(&fx.geo);
  survivor.fold(AccFixture::view(0, a), {1.0, 0.8}, true);
  agg::StreamingAccumulator late(&fx.geo);
  late.fold(AccFixture::view(1, b), {1.0, 1.2}, true);

  agg::StreamingAccumulator root(&fx.geo);
  root.merge(survivor);  // `late` never arrives

  std::vector<float> got(fx.geo.param_count, -1.0F);
  std::vector<float> gbuf(fx.geo.buffer_count, -1.0F);
  std::vector<float> want = got;
  std::vector<float> wbuf = gbuf;
  root.finalize(got, gbuf);
  survivor.finalize(want, wbuf);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0);
  EXPECT_TRUE(testing::bitwise_equal(gbuf, wbuf));
}

// Indices nothing was allowed to write keep their previous values.
TEST(StreamingAccumulatorTest, UntouchedIndicesKeepPreviousValues) {
  AccFixture fx;
  AccFixture::Update u = fx.make_update(40, true, false);
  std::fill(u.mask.begin(), u.mask.end(), std::uint8_t{0});  // nothing trained
  agg::StreamingAccumulator acc(&fx.geo);
  acc.fold(AccFixture::view(0, u), {1.0, 1.0}, true);

  std::vector<float> global(fx.geo.param_count, 7.5F);
  std::vector<float> buffers(fx.geo.buffer_count, 0.0F);
  acc.finalize(global, buffers);
  for (std::size_t f = 0; f < fx.geo.param_count; ++f) {
    if (fx.geo.neuron_owned[f]) {
      EXPECT_EQ(global[f], 7.5F) << "index " << f;
    } else {
      EXPECT_EQ(global[f], u.params[f]) << "index " << f;  // common params
    }
  }
}

// ---- Flat bit-identity, all strategies --------------------------------------

struct Snapshot {
  fl::RunResult result;
  std::vector<float> global;
  std::vector<float> buffers;
  /// make_checkpoint_payload after the run: it also carries the strategy's
  /// cross-round state (Helios' U^ij and C_s per straggler). It records
  /// whether a network session was attached, so compare it only between
  /// runs with the same session.
  std::string payload;
};

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& context) {
  ASSERT_EQ(a.result.rounds.size(), b.result.rounds.size()) << context;
  for (std::size_t i = 0; i < a.result.rounds.size(); ++i) {
    const fl::RoundRecord& ra = a.result.rounds[i];
    const fl::RoundRecord& rb = b.result.rounds[i];
    EXPECT_EQ(ra.virtual_time, rb.virtual_time) << context << " cycle " << i;
    EXPECT_EQ(ra.test_accuracy, rb.test_accuracy) << context << " cycle " << i;
    EXPECT_EQ(ra.mean_train_loss, rb.mean_train_loss)
        << context << " cycle " << i;
    EXPECT_EQ(ra.upload_mb, rb.upload_mb) << context << " cycle " << i;
  }
  ASSERT_EQ(a.global.size(), b.global.size()) << context;
  EXPECT_EQ(std::memcmp(a.global.data(), b.global.data(),
                        a.global.size() * sizeof(float)),
            0)
      << context << ": final global parameters differ";
  ASSERT_EQ(a.buffers.size(), b.buffers.size()) << context;
  EXPECT_TRUE(testing::bitwise_equal(a.buffers, b.buffers))
      << context << ": final global buffers differ";
}

std::unique_ptr<fl::Strategy> make_strategy(const std::string& kind) {
  if (kind == "helios") {
    return std::make_unique<core::HeliosStrategy>(core::HeliosConfig{});
  }
  if (kind == "st_only") {
    core::HeliosConfig cfg;
    cfg.hetero_aggregation = false;
    return std::make_unique<core::HeliosStrategy>(cfg);
  }
  if (kind == "sync") return std::make_unique<fl::SyncFL>();
  if (kind == "async") return std::make_unique<fl::AsyncFL>();
  if (kind == "afo") return std::make_unique<fl::Afo>();
  if (kind == "random") return std::make_unique<fl::RandomSubmodel>();
  if (kind == "static") return std::make_unique<fl::StaticPrune>();
  if (kind == "fedprox") return std::make_unique<fl::FedProx>();
  if (kind == "compressed") {
    return std::make_unique<fl::CompressedSyncFL>(0.25);
  }
  throw std::invalid_argument("unknown strategy kind " + kind);
}

constexpr int kCycles = 3;

/// edge_nodes == 0 attaches no tree (flat). With `network`, every upload
/// also crosses a NetworkSession built from those options.
Snapshot run_tree(const std::string& kind, int edge_nodes, int fanout,
                  int threads,
                  const std::optional<net::NetworkOptions>& network = {}) {
  util::set_global_threads(threads);
  fl::Fleet fleet = testing::make_fleet();
  agg::TreeTopology topo;
  topo.edge_nodes = edge_nodes;
  topo.fanout = fanout;
  fl::HierarchySession hier(fleet, topo);
  std::optional<fl::NetworkSession> session;
  if (network) session.emplace(fleet, *network);
  auto strategy = make_strategy(kind);
  Snapshot snap;
  snap.result = strategy->run(fleet, kCycles);
  snap.global.assign(fleet.server().global().begin(),
                     fleet.server().global().end());
  snap.buffers.assign(fleet.server().global_buffers().begin(),
                      fleet.server().global_buffers().end());
  snap.payload =
      fl::make_checkpoint_payload(fleet, strategy.get(), snap.result);
  return snap;
}

// A single-edge tree (and an inactive topology) must reproduce the flat
// path bit for bit for every strategy, at 1 and 4 threads.
TEST(HierarchyFlatIdentityTest, SingleEdgeTreeBitIdenticalForAllStrategies) {
  ThreadGuard guard;
  for (const std::string kind : {"helios", "st_only", "sync", "async", "afo",
                                 "random", "static", "fedprox",
                                 "compressed"}) {
    const Snapshot flat = run_tree(kind, /*edge_nodes=*/0, 0, 1);
    const Snapshot inactive = run_tree(kind, /*edge_nodes=*/0, 0, 4);
    expect_identical(flat, inactive, kind + " inactive-topology threads=4");
    for (int threads : {1, 4}) {
      const Snapshot tree = run_tree(kind, /*edge_nodes=*/1, 0, threads);
      expect_identical(flat, tree,
                       kind + " single-edge threads=" + std::to_string(threads));
    }
  }
}

TEST(HierarchyFlatIdentityTest, SingleEdgeIdealNetworkBitIdentical) {
  ThreadGuard guard;
  for (const std::string kind : {"helios", "sync"}) {
    const Snapshot flat = run_tree(kind, 0, 0, 1);
    for (int threads : {1, 4}) {
      const Snapshot tree =
          run_tree(kind, 1, 0, threads, net::NetworkOptions{});
      expect_identical(flat, tree,
                       kind + " ideal-net single-edge threads=" +
                           std::to_string(threads));
    }
  }
}

// Under a lossy codec the server aggregates the dequantized uploads, and
// Helios credits each straggler's U^ij from what the server aggregated,
// tree or no tree. So a single-edge tree over an int8pn session with error
// feedback leaves the flat run's records, model and checkpoint payload;
// the contributions live only in the payload, which is where a U^ij
// computed from the raw trained parameters on one path shows.
TEST(HierarchyFlatIdentityTest, SingleEdgeLossyCodecBitIdentical) {
  ThreadGuard guard;
  net::NetworkOptions int8pn;
  int8pn.payload_codec = codec::CodecId::kInt8PerNeuron;
  int8pn.error_feedback = true;
  const Snapshot flat = run_tree("helios", 0, 0, 1, int8pn);
  for (int threads : {1, 4}) {
    const Snapshot tree = run_tree("helios", 1, 0, threads, int8pn);
    const std::string context =
        "int8pn single-edge threads=" + std::to_string(threads);
    expect_identical(flat, tree, context);
    EXPECT_TRUE(flat.payload == tree.payload)
        << context << ": checkpoint payloads differ";
  }
}

// Multi-edge trees reassociate the floating-point sums (each edge folds its
// own devices), so they legitimately differ from flat — but they must be
// bit-identical across thread counts (the fan-out is across edges; each
// edge folds sequentially) and across depths with the same edge partition.
TEST(HierarchyDeterminismTest, MultiEdgeTreeBitIdenticalAcrossThreads) {
  ThreadGuard guard;
  for (const std::string kind : {"helios", "sync"}) {
    const Snapshot seq = run_tree(kind, /*edge_nodes=*/4, /*fanout=*/2, 1);
    const Snapshot par = run_tree(kind, 4, 2, 4);
    expect_identical(seq, par, kind + " depth-3 1-vs-4 threads");
  }
}

// With ideal links, a depth-3 tree merges the same per-edge accumulators as
// the depth-2 tree over the same edge partition — the regional tier is one
// more exact (0 + x) merge layer, so results are bit-identical.
TEST(HierarchyDeterminismTest, RegionalTierIsExactOverSameEdgePartition) {
  ThreadGuard guard;
  const Snapshot depth2 = run_tree("helios", 4, 0, 1);
  const Snapshot depth3 = run_tree("helios", 4, 2, 1);
  expect_identical(depth2, depth3, "depth-2 vs depth-3, 4 edges");
}

// begin_round must leave no trace of the previous round. One tree reused
// over rounds whose devices land on different edges — edge 0 and regional 0
// busy in round 1, idle in round 2, busy again in round 3 — must finalize
// every round bit for bit as a fresh tree does, buffers (BatchNorm)
// included.
TEST(HierarchyResetTest, ReusedTreeMatchesFreshTreeEveryRound) {
  ThreadGuard guard;
  nn::Model model = models::resnet18_lite_spec({1, 8, 8, 4}, 1, 1).build(9);
  const agg::ModelGeometry geo = agg::make_geometry(model);
  ASSERT_GT(geo.buffer_count, 0U);
  const std::vector<float> global0 = model.params_flat();
  const std::vector<float> buffers0(geo.buffer_count, 0.25F);
  // Device ids per round; a device sits on edge id % 4, edges 0-1 under
  // regional 0 and edges 2-3 under regional 1 at depth 3.
  const std::vector<std::vector<int>> rounds = {
      {0, 1, 5, 2}, {2, 6, 10}, {4, 3, 8}};

  for (const int fanout : {0, 2}) {
    agg::TreeTopology topo;
    topo.edge_nodes = 4;
    topo.fanout = fanout;
    for (const int threads : {1, 4}) {
      util::set_global_threads(threads);
      const std::string ctx = "depth " + std::to_string(topo.depth()) +
                              ", threads " + std::to_string(threads);
      agg::AggregatorTree reused(topo, &geo);
      util::Rng rng(0x7E5E7);
      for (std::size_t r = 0; r < rounds.size(); ++r) {
        std::vector<AccFixture::Update> updates;
        std::vector<agg::UpdateView> views;
        std::vector<agg::FoldWeights> weights;
        for (const int id : rounds[r]) {
          AccFixture::Update u;
          u.params.resize(geo.param_count);
          for (float& v : u.params) v = static_cast<float>(rng.normal());
          u.buffers.resize(geo.buffer_count);
          for (float& v : u.buffers) v = static_cast<float>(rng.uniform());
          u.mask.resize(geo.neurons.size());
          for (auto& b : u.mask) b = rng.uniform_int(4) != 0;
          updates.push_back(std::move(u));
          weights.push_back({1.0 + id, 0.5 + id});
        }
        for (std::size_t i = 0; i < updates.size(); ++i) {
          views.push_back(AccFixture::view(rounds[r][i], updates[i]));
        }
        const auto run = [&](agg::AggregatorTree& tree) {
          tree.fold(views, weights, true);
          tree.collapse();
          std::pair<std::vector<float>, std::vector<float>> out{global0,
                                                                buffers0};
          tree.finalize(out.first, out.second);
          return out;
        };
        reused.begin_round();
        const auto got = run(reused);
        agg::AggregatorTree fresh(topo, &geo);
        const auto want = run(fresh);
        const std::string at = ctx + ", round " + std::to_string(r + 1);
        EXPECT_TRUE(testing::bitwise_equal(got.first, want.first)) << at;
        EXPECT_TRUE(testing::bitwise_equal(got.second, want.second)) << at;
        EXPECT_EQ(reused.root_folded(), rounds[r].size()) << at;
      }
    }
  }
}

// ---- Simulated relay: tier deadlines, loss, exclusion -----------------------

net::NetworkOptions lossless_sim() {
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.latency_s = 0.001;
  return opts;
}

// An edge whose uplink is down all round drops its whole device set; the
// survivors' renormalized aggregate still advances the model, and the tier
// stats surface the lost frames.
TEST(HierarchyRelayTest, DeadEdgeUplinkExcludesItsDevicesAndRecordsLoss) {
  ThreadGuard guard;
  obs::TelemetrySink telemetry;
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&telemetry);
  agg::TreeTopology topo;
  topo.edge_nodes = 2;
  fl::HierarchySession hier(fleet, topo);
  fl::NetworkSession session(fleet, lossless_sim());

  // Edge 1's uplink loses every frame: its merge frame exhausts the retry
  // budget and never reaches the root.
  net::ChannelConfig broken;
  broken.loss_prob = 1.0;
  hier.tree().edge_channel(1).set_config(broken);

  const std::vector<float> before(fleet.server().global());
  fl::SyncFL strategy;
  const fl::RunResult r = strategy.run(fleet, 1);
  ASSERT_EQ(r.rounds.size(), 1U);

  // Edge 0's devices still aggregated: the model moved.
  EXPECT_NE(std::memcmp(before.data(), fleet.server().global().data(),
                        before.size() * sizeof(float)),
            0);
  const obs::TierTotals edge = telemetry.dashboard().tier("edge");
  EXPECT_GT(edge.lost_frames, 0);
  EXPECT_GT(edge.frames_folded, 0);
  EXPECT_GT(telemetry.metrics()
                .counter("helios.agg.frames_lost_total", {{"tier", "edge"}})
                .value(),
            0.0);
  fleet.set_telemetry(nullptr);
}

// Every edge missing the tier deadline closes the round as a clean no-op:
// nothing reaches the root, the global model is untouched.
TEST(HierarchyRelayTest, AllEdgesLateClosesRoundAsNoOp) {
  ThreadGuard guard;
  fl::Fleet fleet = testing::make_fleet();
  agg::TreeTopology topo;
  topo.edge_nodes = 2;
  topo.edge_link.latency_s = 50.0;  // every merge frame is hopelessly late
  topo.edge_deadline_s = 10.0;
  fl::HierarchySession hier(fleet, topo);
  fl::NetworkSession session(fleet, lossless_sim());

  const std::vector<float> before(fleet.server().global());
  const std::vector<float> before_buffers(fleet.server().global_buffers());
  fl::SyncFL strategy;
  const fl::RunResult r = strategy.run(fleet, 1);
  ASSERT_EQ(r.rounds.size(), 1U);
  EXPECT_EQ(std::memcmp(before.data(), fleet.server().global().data(),
                        before.size() * sizeof(float)),
            0)
      << "no merge frame arrived, yet the global model moved";
  EXPECT_TRUE(testing::bitwise_equal(before_buffers,
                                     fleet.server().global_buffers()));
  // The round waited out the tier deadline.
  EXPECT_GE(r.rounds[0].virtual_time, topo.edge_deadline_s);
}

// Tier-deadline exclusion composes with exact renormalization: dropping an
// edge via the deadline equals running only the surviving devices, because
// the merge frames carry their weight mass. The ideal-timing variant pins
// the arithmetic claim without channel randomness.
TEST(HierarchyRelayTest, LateEdgeRenormalizesLikeAMissingDeviceSet) {
  ThreadGuard guard;
  // Tree run: edge 1's uplink is far too slow for the tier deadline.
  fl::Fleet tree_fleet = testing::make_fleet();
  agg::TreeTopology topo;
  topo.edge_nodes = 2;
  topo.edge_deadline_s = 10.0;
  fl::HierarchySession hier(tree_fleet, topo);
  fl::NetworkSession tree_session(tree_fleet, lossless_sim());
  net::ChannelConfig slow;
  slow.latency_s = 100.0;
  hier.tree().edge_channel(1).set_config(slow);

  fl::SyncFL tree_strategy;
  tree_strategy.run(tree_fleet, 1);

  // Reference: a single-edge tree over only the devices edge 0 served
  // (ids 0 and 2 under id % 2). Same training, same weights, same fold
  // order — the aggregate must match the excluded-edge run bit for bit.
  fl::Fleet ref_fleet = testing::make_fleet();
  agg::TreeTopology ref_topo;
  ref_topo.edge_nodes = 1;
  fl::HierarchySession ref_hier(ref_fleet, ref_topo);
  // Replicate the training pass on all four devices (identical inputs),
  // but aggregate only edge 0's cohort.
  fl::AggOptions opts;
  std::vector<fl::ClientUpdate> updates;
  const std::vector<float> base(ref_fleet.server().global());
  for (auto& c : ref_fleet.clients()) {
    updates.push_back(c->run_cycle(base, ref_fleet.server().global_buffers(),
                                   {}, 1.0));
  }
  std::vector<fl::ClientUpdate> survivors;
  for (auto& u : updates) {
    if (u.client_id % 2 == 0) survivors.push_back(u);
  }
  ref_fleet.server().aggregate(survivors, opts);

  EXPECT_EQ(std::memcmp(tree_fleet.server().global().data(),
                        ref_fleet.server().global().data(),
                        base.size() * sizeof(float)),
            0)
      << "late-edge exclusion does not equal the surviving device set";
}

// Async completions pay a deterministic per-hop uplink: repeated queries
// agree, depth-3 costs more than depth-2, and an AsyncFL run completes.
TEST(HierarchyRelayTest, AsyncUplinkIsDeterministicAndComposesPerHop) {
  ThreadGuard guard;
  fl::Fleet fleet = testing::make_fleet();
  agg::TreeTopology topo;
  topo.edge_nodes = 4;
  topo.fanout = 2;
  topo.edge_link.latency_s = 0.005;
  topo.regional_link.latency_s = 0.005;
  fl::HierarchySession hier(fleet, topo);
  fl::NetworkSession session(fleet, lossless_sim());

  const double a = hier.async_uplink_seconds(0, 128);
  EXPECT_GT(a, 0.0);
  EXPECT_EQ(a, hier.async_uplink_seconds(0, 128));

  fl::Fleet fleet2 = testing::make_fleet();
  agg::TreeTopology depth2 = topo;
  depth2.fanout = 0;
  fl::HierarchySession hier2(fleet2, depth2);
  EXPECT_LT(hier2.async_uplink_seconds(0, 128), a);

  fl::AsyncFL strategy;
  const fl::RunResult r = strategy.run(fleet, 2);
  EXPECT_EQ(r.rounds.size(), 2U);
}

// ---- Telemetry / journal ----------------------------------------------------

TEST(HierarchyTelemetryTest, TierMergeMetricsAndJournalRollupsRecorded) {
  ThreadGuard guard;
  obs::TelemetryConfig cfg;
  cfg.tracing = false;
  cfg.journal = true;
  obs::TelemetrySink telemetry(cfg);
  {
    fl::Fleet fleet = testing::make_fleet();
    fleet.set_telemetry(&telemetry);
    agg::TreeTopology topo;
    topo.edge_nodes = 2;
    topo.fanout = 1;  // depth 3: two regionals
    fl::HierarchySession hier(fleet, topo);
    core::HeliosStrategy strategy{core::HeliosConfig{}};
    strategy.run(fleet, 2);

    for (const char* tier : {"edge", "regional", "root"}) {
      EXPECT_GT(telemetry.metrics()
                    .counter("helios.agg.frames_folded_total", {{"tier", tier}})
                    .value(),
                0.0)
          << tier;
    }
    EXPECT_GT(telemetry.metrics()
                  .counter("helios.agg.bytes_forwarded_total",
                           {{"tier", "edge"}})
                  .value(),
              0.0);
    const obs::TierTotals root = telemetry.dashboard().tier("root");
    EXPECT_EQ(root.merges, 2);  // one rollup per round
    fleet.set_telemetry(nullptr);
    telemetry.flush();
  }

  // The journal carries the per-tier merge events; summarize rolls them up.
  std::istringstream is(telemetry.journal_text());
  const obs::JournalSummary summary =
      obs::summarize_journal(obs::read_journal(is));
  ASSERT_EQ(summary.tiers.size(), 3U);
  EXPECT_GT(summary.tiers.at("edge").frames_folded, 0);
  EXPECT_GT(summary.tiers.at("edge").bytes_forwarded, 0);
  EXPECT_EQ(summary.tiers.at("root").merges, 2);
}

// ---- Checkpoint -------------------------------------------------------------

TEST(HierarchyCheckpointTest, ChannelStateRoundTripsAndTopologyIsValidated) {
  ThreadGuard guard;
  const fs::path dir = fs::temp_directory_path() / "helios_agg_ckpt_test";
  fs::create_directories(dir);
  const std::string ckpt = (dir / "ck").string();

  net::NetworkOptions nopts = lossless_sim();
  nopts.channel.jitter_s = 0.01;  // advance channel RNGs
  agg::TreeTopology topo;
  topo.edge_nodes = 2;
  topo.edge_link.jitter_s = 0.01;

  {
    fl::Fleet fleet = testing::make_fleet();
    fl::HierarchySession hier(fleet, topo);
    fleet.register_checkpointable("hierarchy", &hier);
    fl::NetworkSession session(fleet, nopts);
    fl::SyncFL strategy;
    fl::RunResult partial;
    partial.method = strategy.name();
    strategy.run_range(fleet, partial, 0, 2);
    fleet.save_checkpoint(ckpt, &strategy, partial);
  }

  // A mismatched topology is refused with a clear error.
  {
    fl::Fleet fleet = testing::make_fleet();
    agg::TreeTopology other = topo;
    other.edge_nodes = 4;
    fl::HierarchySession hier(fleet, other);
    fleet.register_checkpointable("hierarchy", &hier);
    fl::NetworkSession session(fleet, nopts);
    fl::SyncFL strategy;
    EXPECT_THROW(fleet.resume(ckpt, &strategy), fl::CheckpointError);
  }

  // The matching topology resumes; the relayed channel RNG positions line
  // up so the continued run is bit-identical to the uninterrupted one.
  auto finish = [&](bool resume) {
    fl::Fleet fleet = testing::make_fleet();
    fl::HierarchySession hier(fleet, topo);
    fleet.register_checkpointable("hierarchy", &hier);
    fl::NetworkSession session(fleet, nopts);
    fl::SyncFL strategy;
    fl::RunResult result;
    if (resume) {
      result = fleet.resume(ckpt, &strategy);
      strategy.run_range(fleet, result, 2, 4);
    } else {
      result.method = strategy.name();
      strategy.run_range(fleet, result, 0, 4);
    }
    Snapshot snap;
    snap.result = std::move(result);
    snap.global.assign(fleet.server().global().begin(),
                       fleet.server().global().end());
    snap.buffers.assign(fleet.server().global_buffers().begin(),
                        fleet.server().global_buffers().end());
    return snap;
  };
  const Snapshot golden = finish(false);
  const Snapshot resumed = finish(true);
  expect_identical(golden, resumed, "hierarchy resume");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace helios
