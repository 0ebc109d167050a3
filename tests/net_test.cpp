// Network simulation subsystem: wire-format round trips (property-style,
// over random masks and models with and without BatchNorm buffers),
// corruption/truncation rejection, channel fault semantics, round-protocol
// retry/deadline accounting, the frame-bytes-vs-analytic-cost agreement the
// cost model relies on, and fleet-level churn (death + late join).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/helios_strategy.h"
#include "core/scalability.h"
#include "fl/afo.h"
#include "fl/async.h"
#include "fl/compression.h"
#include "fl/fedprox.h"
#include "fl/sync.h"
#include "fl/transport.h"
#include "obs/telemetry.h"
#include "models/zoo.h"
#include "net/channel.h"
#include "net/round_protocol.h"
#include "net/wire.h"
#include "test_support.h"
#include "util/rng.h"

namespace helios {
namespace {

// ---- Wire format -----------------------------------------------------------

struct WireFixture {
  nn::Model model;
  net::WireLayout layout;
  std::vector<float> base;
  std::vector<float> params;
  std::vector<float> buffers;

  explicit WireFixture(const models::ModelSpec& spec, std::uint64_t seed = 3)
      : model(spec.build(seed)), layout(net::make_wire_layout(model)) {
    util::Rng rng(seed * 31 + 7);
    base.resize(layout.param_count);
    params.resize(layout.param_count);
    buffers.resize(layout.buffer_count);
    for (float& v : base) v = static_cast<float>(rng.normal());
    for (float& v : params) v = static_cast<float>(rng.normal());
    for (float& v : buffers) v = static_cast<float>(rng.normal());
  }

  net::WireMessage message(std::span<const std::uint8_t> mask) const {
    net::WireMessage m;
    m.client_id = 42;
    m.sample_count = 1234;
    m.mean_loss = 0.625;
    m.params = params;
    m.buffers = buffers;
    m.neuron_mask = mask;
    return m;
  }

  /// The fp32 frame of the update: dense without `base`, the smaller of
  /// the dense and sparse frames with it.
  std::vector<std::uint8_t> encode(std::span<const std::uint8_t> mask,
                                   std::span<const float> base = {}) const {
    return net::encode_frame_auto(message(mask), base, layout,
                                  codec::CodecId::kFp32);
  }

  /// Applies the soft-training contract: parameters of masked-off neurons
  /// stay bit-identical to the base snapshot the client received.
  void freeze_unmasked(std::span<const std::uint8_t> mask) {
    if (mask.empty()) return;
    for (std::size_t f = 0; f < layout.param_count; ++f) {
      const std::uint32_t n = layout.neuron_of[f];
      if (n != net::WireLayout::kCommonParam && mask[n] == 0) {
        params[f] = base[f];
      }
    }
  }
};

void expect_roundtrip(const WireFixture& fx,
                      std::span<const std::uint8_t> mask,
                      const std::vector<std::uint8_t>& frame) {
  const net::DecodedMessage d = net::decode_frame(frame, fx.layout, fx.base);
  EXPECT_EQ(d.client_id, 42);
  EXPECT_EQ(d.sample_count, 1234U);
  EXPECT_EQ(d.mean_loss, 0.625);
  ASSERT_EQ(d.params.size(), fx.layout.param_count);
  EXPECT_EQ(std::memcmp(d.params.data(), fx.params.data(),
                        fx.params.size() * sizeof(float)),
            0)
      << "decoded parameters are not bit-identical";
  ASSERT_EQ(d.buffers.size(), fx.layout.buffer_count);
  if (!fx.buffers.empty()) {
    EXPECT_EQ(std::memcmp(d.buffers.data(), fx.buffers.data(),
                          fx.buffers.size() * sizeof(float)),
              0);
  }
  ASSERT_EQ(d.neuron_mask.size(), mask.size());
  for (std::size_t j = 0; j < mask.size(); ++j) {
    EXPECT_EQ(d.neuron_mask[j] != 0, mask[j] != 0) << "neuron " << j;
  }
}

TEST(WireTest, DenseRoundTripUnmasked) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 24));
  const auto frame = fx.encode({});
  EXPECT_EQ(frame.size(), net::dense_frame_bytes(fx.layout, {}));
  expect_roundtrip(fx, {}, frame);
}

TEST(WireTest, DenseRoundTripRandomMasks) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 24));
  util::Rng rng(99);
  const int m = fx.layout.neuron_total;
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(m));
    for (auto& b : mask) b = rng.uniform() < 0.5 ? 1 : 0;
    fx.freeze_unmasked(mask);
    const auto frame = fx.encode(mask);
    EXPECT_EQ(frame.size(), net::dense_frame_bytes(fx.layout, mask));
    expect_roundtrip(fx, mask, frame);
  }
}

TEST(WireTest, EmptyAndFullMasksShipEverything) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 16));
  const std::vector<std::uint8_t> all(
      static_cast<std::size_t>(fx.layout.neuron_total), 1);
  const auto frame_all = fx.encode(all);
  const auto frame_none = fx.encode({});
  // A mask selecting every neuron ships the same payload as no mask, plus
  // the mask bytes themselves.
  EXPECT_EQ(frame_all.size(),
            frame_none.size() +
                net::mask_wire_bytes(fx.layout.neuron_total));
  expect_roundtrip(fx, all, frame_all);
  // Nothing is left for a base to fill, so none is needed.
  EXPECT_TRUE(testing::bitwise_equal(
      net::decode_frame(frame_all, fx.layout, {}).params, fx.params));
}

TEST(WireTest, AllZeroMaskShipsOnlyCommonParams) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 16));
  const std::vector<std::uint8_t> none(
      static_cast<std::size_t>(fx.layout.neuron_total), 0);
  fx.freeze_unmasked(none);
  const auto frame = fx.encode(none);
  const std::size_t common =
      static_cast<std::size_t>(std::count(fx.layout.neuron_of.begin(),
                                          fx.layout.neuron_of.end(),
                                          net::WireLayout::kCommonParam));
  EXPECT_EQ(net::dense_payload_count(fx.layout, none), common);
  expect_roundtrip(fx, none, frame);
}

TEST(WireTest, MaskedFrameIsProportionallySmaller) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 48));
  const int m = fx.layout.neuron_total;
  std::vector<std::uint8_t> half(static_cast<std::size_t>(m), 0);
  for (int j = 0; j < m / 2; ++j) half[static_cast<std::size_t>(j)] = 1;
  const std::size_t full = net::dense_frame_bytes(fx.layout, {});
  const std::size_t shrunk = net::dense_frame_bytes(fx.layout, half);
  EXPECT_LT(shrunk, full);
  // The shrunk payload carries at most the common params plus ~half the
  // neuron-owned ones.
  EXPECT_LT(net::dense_payload_count(fx.layout, half),
            fx.layout.param_count);
}

TEST(WireTest, BatchNormBuffersSurviveRoundTrip) {
  WireFixture fx(models::resnet18_lite_spec({3, 16, 16, 10}));
  ASSERT_GT(fx.layout.buffer_count, 0U)
      << "fixture model must carry BatchNorm running statistics";
  const auto frame = fx.encode({});
  expect_roundtrip(fx, {}, frame);
}

TEST(WireTest, SparseRoundTripTracksChangedEntries) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 24));
  // Touch only a handful of entries; everything else equals base.
  fx.params = fx.base;
  util::Rng rng(5);
  for (int k = 0; k < 10; ++k) {
    fx.params[static_cast<std::size_t>(
        rng.uniform_int(fx.layout.param_count))] += 1.0F;
  }
  std::size_t changed = 0;
  for (std::size_t f = 0; f < fx.params.size(); ++f) {
    changed += fx.params[f] != fx.base[f];
  }
  net::CodecResult result;
  const auto sparse = net::encode_frame_auto(
      fx.message({}), fx.base, fx.layout, codec::CodecId::kFp32, &result);
  const auto dense = fx.encode({});
  EXPECT_TRUE(result.sparse);
  EXPECT_TRUE(result.dequantized.empty());
  // The changed indices, then their values: 8 B per entry.
  EXPECT_EQ(sparse.size(), dense.size() -
                               fx.layout.param_count * sizeof(float) +
                               changed * 8);
  expect_roundtrip(fx, {}, sparse);
  // When every entry changed the dense frame wins, base or not.
  for (float& v : fx.params) v += 0.5F;
  EXPECT_EQ(fx.encode({}, fx.base), fx.encode({}));
}

TEST(WireTest, CorruptedCrcIsRejected) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 16));
  auto frame = fx.encode({});
  frame[frame.size() / 2] ^= 0x40;
  EXPECT_THROW(net::decode_frame(frame, fx.layout, fx.base), net::WireError);
}

TEST(WireTest, TruncatedFrameIsRejected) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 16));
  auto frame = fx.encode({});
  for (std::size_t cut :
       {frame.size() - 1, frame.size() / 2, net::kHeaderBytes - 1,
        std::size_t{3}, std::size_t{0}}) {
    std::vector<std::uint8_t> trunc(frame.begin(),
                                    frame.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(net::decode_frame(trunc, fx.layout, fx.base), net::WireError)
        << "cut at " << cut;
  }
}

TEST(WireTest, ForeignArchitectureIsRejected) {
  WireFixture fx(models::mlp_spec({1, 8, 8, 4}, 16));
  WireFixture other(models::mlp_spec({1, 8, 8, 4}, 32));
  const auto frame = fx.encode({});
  EXPECT_THROW(net::decode_frame(frame, other.layout, other.base),
               net::WireError);
}

TEST(WireTest, Crc32MatchesKnownVector) {
  // IEEE 802.3 CRC of "123456789" is 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(net::crc32(digits), 0xCBF43926U);
}

// ---- CRC32: the folding path against the tables ----------------------------
//
// On CPUs with PCLMULQDQ, net::crc32 folds the 16-byte blocks of any buffer
// of 64 B or more. The oracle is net::crc32_table, called explicitly so the
// comparison also runs there; elsewhere both run the tables and the cases
// still pin them.

TEST(Crc32Test, CheckVectorOnBothPaths) {
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(net::crc32(digits), 0xCBF43926U);
  EXPECT_EQ(net::crc32_table(digits), 0xCBF43926U);
}

TEST(Crc32Test, FoldedMatchesTableAtEveryLengthAndOffset) {
  // Every length 0..1100 at 16 start offsets: every residue of the 16-byte
  // blocks and of the 64-byte four-lane steps, at every alignment.
  util::Rng rng(0xC4C32);
  std::vector<std::uint8_t> buf(1100 + 16);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::uint8_t> s(buf.data() + offset, len);
      ASSERT_EQ(net::crc32(s), net::crc32_table(s))
          << "length " << len << " offset " << offset;
    }
  }
}

TEST(Crc32Test, FoldedMatchesTableOnRandomSpans) {
  util::Rng rng(0x5EED);
  std::vector<std::uint8_t> buf(70000);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (int i = 0; i < 2000; ++i) {
    const std::size_t offset = rng.uniform_int(64);
    const std::size_t len = rng.uniform_int(buf.size() - offset + 1);
    const std::span<const std::uint8_t> s(buf.data() + offset, len);
    ASSERT_EQ(net::crc32(s), net::crc32_table(s))
        << "length " << len << " offset " << offset;
  }
}

TEST(Crc32Test, FoldedMatchesTableOnFrameSizedBuffers) {
  // A hier_lazy_32k merge frame's size and 1 MiB. The expected values are
  // zlib.crc32 of the same bytes, computed outside the repo.
  struct Case {
    std::size_t bytes;
    std::uint32_t crc;
  };
  for (const Case c : {Case{64, 0x9e279317U}, Case{1100, 0x13e64e0aU},
                       Case{342204, 0xdc3ee0d9U},
                       Case{std::size_t{1} << 20, 0xddde5310U}}) {
    std::vector<std::uint8_t> buf(c.bytes);
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<std::uint8_t>(i * 131 + (i >> 8) * 7);
    }
    EXPECT_EQ(net::crc32(buf), c.crc) << c.bytes << " B";
    EXPECT_EQ(net::crc32_table(buf), c.crc) << c.bytes << " B";
  }
}

// Satellite: the exact frame byte count and the analytic upload volume
// (upload_mb = shipped params * 4 / 1e6) must agree within 1% for an
// unmasked LeNet update — the wire format's framing overhead is negligible,
// so switching upload_seconds from the analytic M/B_n path to real frame
// bytes does not change the simulated regime.
TEST(WireTest, FrameBytesMatchAnalyticUploadWithinOnePercent) {
  WireFixture fx(models::lenet_spec({1, 28, 28, 10}));
  const auto frame = fx.encode({}, fx.base);
  const double analytic_bytes =
      static_cast<double>(fx.layout.param_count) * 4.0;
  const double wire_bytes = static_cast<double>(frame.size());
  EXPECT_LT(std::abs(wire_bytes - analytic_bytes) / analytic_bytes, 0.01)
      << "wire=" << wire_bytes << " analytic=" << analytic_bytes;
}

// ---- Channel ---------------------------------------------------------------

net::SimulatedChannel make_channel(net::ChannelConfig cfg,
                                   std::uint64_t seed = 77) {
  util::Rng rng(seed);
  return net::SimulatedChannel(cfg, /*fallback_bandwidth_mbps=*/10.0,
                               rng.fork(1));
}

TEST(ChannelTest, IdealTransferMatchesAnalyticTime) {
  net::ChannelConfig cfg;
  cfg.bandwidth_mbps = 10.0;  // MB/s
  auto chan = make_channel(cfg);
  const auto a = chan.try_send(1'000'000, 5.0);
  EXPECT_EQ(a.outcome, net::SimulatedChannel::Attempt::Outcome::kDelivered);
  EXPECT_DOUBLE_EQ(a.finish_s, 5.0 + 0.1);  // 1 MB at 10 MB/s
  EXPECT_EQ(a.bytes, 1'000'000U);
}

TEST(ChannelTest, DeterministicUnderSameSeed) {
  net::ChannelConfig cfg;
  cfg.bandwidth_mbps = 5.0;
  cfg.latency_s = 0.01;
  cfg.jitter_s = 0.05;
  cfg.loss_prob = 0.3;
  auto a = make_channel(cfg, 123);
  auto b = make_channel(cfg, 123);
  for (int i = 0; i < 50; ++i) {
    const auto ra = a.try_send(10'000, i * 1.0);
    const auto rb = b.try_send(10'000, i * 1.0);
    EXPECT_EQ(ra.outcome, rb.outcome) << i;
    EXPECT_EQ(ra.finish_s, rb.finish_s) << i;
  }
}

TEST(ChannelTest, LossRateIsRoughlyRespected) {
  net::ChannelConfig cfg;
  cfg.bandwidth_mbps = 5.0;
  cfg.loss_prob = 0.25;
  auto chan = make_channel(cfg, 2024);
  int lost = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    if (chan.try_send(1000, i * 1.0).outcome ==
        net::SimulatedChannel::Attempt::Outcome::kLost) {
      ++lost;
    }
  }
  const double rate = static_cast<double>(lost) / trials;
  EXPECT_NEAR(rate, 0.25, 0.05);
}

TEST(ChannelTest, OutageBlocksAndDeathIsPermanent) {
  net::ChannelConfig cfg;
  cfg.bandwidth_mbps = 10.0;
  auto chan = make_channel(cfg);
  chan.add_outage(1.0, 2.0);
  chan.set_death(10.0);

  const auto blocked = chan.try_send(1000, 1.5);
  EXPECT_EQ(blocked.outcome,
            net::SimulatedChannel::Attempt::Outcome::kBlocked);
  EXPECT_DOUBLE_EQ(blocked.finish_s, 2.0);
  EXPECT_EQ(blocked.bytes, 0U);

  const auto ok = chan.try_send(1000, 2.0);
  EXPECT_EQ(ok.outcome, net::SimulatedChannel::Attempt::Outcome::kDelivered);

  // Death mid-transfer: counted on the wire, never delivered.
  const auto dying = chan.try_send(10'000'000, 9.5);
  EXPECT_EQ(dying.outcome, net::SimulatedChannel::Attempt::Outcome::kDead);
  EXPECT_DOUBLE_EQ(dying.finish_s, 10.0);

  const auto dead = chan.try_send(1000, 11.0);
  EXPECT_EQ(dead.outcome, net::SimulatedChannel::Attempt::Outcome::kDead);
  EXPECT_EQ(dead.bytes, 0U);
}

// ---- Round protocol --------------------------------------------------------

TEST(RoundProtocolTest, RetriesAreBoundedAndBackedOff) {
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.bandwidth_mbps = 10.0;
  opts.channel.loss_prob = 0.999999;  // effectively always lost
  opts.max_retries = 3;
  net::RoundProtocol proto(opts);
  proto.add_device(0, 10.0);
  const auto d = proto.send_with_retries(0, 1000, 0.0, 0.0);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.transmissions, 1 + opts.max_retries);
  EXPECT_EQ(d.retransmits, opts.max_retries);
  EXPECT_EQ(d.lost_frames, 1 + opts.max_retries);
  // Every transmission still put bytes on the wire.
  EXPECT_EQ(d.bytes_on_wire, 1000U * (1 + opts.max_retries));
}

TEST(RoundProtocolTest, DeadlineMissesAreCountedAndRoundCloses) {
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.bandwidth_mbps = 1.0;  // 1 MB/s: 1 MB takes 1 s
  opts.deadline_s = 0.5;
  net::RoundProtocol proto(opts);
  proto.add_device(0, 1.0);
  proto.add_device(1, 1.0);
  const std::vector<net::RoundProtocol::Send> sends = {
      {0, 100'000, 0.0},    // 0.1 s: in time
      {1, 1'000'000, 0.0},  // 1.0 s: misses the 0.5 s deadline
  };
  const auto out = proto.run_round(sends, 0.0, 0.0);
  EXPECT_EQ(out.delivered, 1);
  EXPECT_EQ(out.deadline_misses, 1);
  // The server waits for the deadline, no longer.
  EXPECT_DOUBLE_EQ(out.round_close_s, 0.5);
}

TEST(RoundProtocolTest, PerDeviceStreamsAreStableUnderChurn) {
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.bandwidth_mbps = 4.0;
  opts.channel.jitter_s = 0.2;
  opts.seed = 31;
  net::RoundProtocol a(opts);
  a.add_device(0, 4.0);
  a.add_device(1, 4.0);
  net::RoundProtocol b(opts);
  b.add_device(1, 4.0);  // registration order differs; id-forked streams
  b.add_device(5, 4.0);  // an extra joiner must not perturb device 1
  b.add_device(0, 4.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a.send_with_retries(1, 5000, i * 1.0, 0.0).settle_s,
              b.send_with_retries(1, 5000, i * 1.0, 0.0).settle_s);
  }
}

// An override goes through the channel constructor's checks, so no run can
// configure a device its own checkpoint restore would refuse.
TEST(RoundProtocolTest, ConfigureDeviceRefusesConfigsTheChannelRefuses) {
  net::RoundProtocol proto(net::NetworkOptions{});
  proto.add_device(0, 4.0);
  for (const auto& [latency, jitter, loss] :
       {std::tuple{-0.1, 0.0, 0.0}, std::tuple{0.0, 0.0, 1.0},
        std::tuple{std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0},
        std::tuple{0.0, std::numeric_limits<double>::infinity(), 0.0}}) {
    net::ChannelConfig cfg;
    cfg.latency_s = latency;
    cfg.jitter_s = jitter;
    cfg.loss_prob = loss;
    EXPECT_THROW(proto.configure_device(0, cfg), std::invalid_argument)
        << latency << " " << jitter << " " << loss;
  }
  net::ChannelConfig ok;
  ok.latency_s = 0.01;
  ok.loss_prob = 0.5;
  EXPECT_NO_THROW(proto.configure_device(0, ok));
  EXPECT_EQ(proto.channel(0).config().loss_prob, 0.5);
}

// ---- Fleet-level integration ----------------------------------------------

double final_accuracy(const fl::RunResult& r) {
  return r.rounds.empty() ? 0.0 : r.rounds.back().test_accuracy;
}

TEST(NetworkSessionTest, IdealSessionIsBitIdenticalToNoSession) {
  const int kCycles = 3;
  fl::RunResult plain, ideal;
  std::vector<float> plain_global, ideal_global;
  {
    fl::Fleet fleet = testing::make_fleet();
    plain = core::HeliosStrategy(core::HeliosConfig{}).run(fleet, kCycles);
    plain_global.assign(fleet.server().global().begin(),
                        fleet.server().global().end());
  }
  {
    fl::Fleet fleet = testing::make_fleet();
    fl::NetworkSession session(fleet, net::NetworkOptions{});  // kIdeal
    ideal = core::HeliosStrategy(core::HeliosConfig{}).run(fleet, kCycles);
    ideal_global.assign(fleet.server().global().begin(),
                        fleet.server().global().end());
  }
  ASSERT_EQ(plain.rounds.size(), ideal.rounds.size());
  for (std::size_t i = 0; i < plain.rounds.size(); ++i) {
    EXPECT_EQ(plain.rounds[i].virtual_time, ideal.rounds[i].virtual_time);
    EXPECT_EQ(plain.rounds[i].test_accuracy, ideal.rounds[i].test_accuracy);
    EXPECT_EQ(plain.rounds[i].mean_train_loss,
              ideal.rounds[i].mean_train_loss);
    EXPECT_EQ(plain.rounds[i].upload_mb, ideal.rounds[i].upload_mb);
  }
  ASSERT_EQ(plain_global.size(), ideal_global.size());
  EXPECT_EQ(std::memcmp(plain_global.data(), ideal_global.data(),
                        plain_global.size() * sizeof(float)),
            0);
}

TEST(NetworkSessionTest, LossyRoundsStillCompleteAndReportTelemetry) {
  obs::TelemetrySink telemetry;
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&telemetry);
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.loss_prob = 0.05;
  opts.max_retries = 2;
  fl::NetworkSession session(fleet, opts);
  session.protocol().script_death(3, 1e-6);  // a straggler dies immediately

  const fl::RunResult r = fl::SyncFL().run(fleet, 3);
  ASSERT_EQ(r.rounds.size(), 3U);
  EXPECT_FALSE(fleet.client(3).active());
  EXPECT_GE(
      telemetry.metrics().counter("helios.net.round_bytes_on_wire_total")
          .value(),
      1.0);
  EXPECT_GE(telemetry.metrics().counter("helios.net.deaths_total").value(),
            1.0);
  fleet.set_telemetry(nullptr);
}

TEST(NetworkSessionTest, ChurnMatchesNoChurnAccuracyWithinTolerance) {
  const int kCycles = 6;
  // Baseline: no churn, ideal network.
  double base_helios, base_sync;
  {
    fl::Fleet fleet = testing::make_fleet();
    base_helios =
        final_accuracy(core::HeliosStrategy(core::HeliosConfig{})
                           .run(fleet, kCycles));
  }
  {
    fl::Fleet fleet = testing::make_fleet();
    base_sync = final_accuracy(fl::SyncFL().run(fleet, kCycles));
  }

  auto add_joiner = [](fl::Fleet& fleet) {
    fl::ClientConfig cfg;
    cfg.seed = 404;
    cfg.lr = 0.08F;
    cfg.batch_size = 8;
    fl::Client& joiner =
        fleet.add_client(testing::tiny_dataset(48), cfg,
                         device::sim_scaled(device::deeplens_cpu()));
    // The joiner is profiled against the collaboration pace and receives
    // its expected volume P_i through the scalability path.
    core::ScalabilityManager admissions;
    const core::AdmissionResult res = admissions.admit(fleet, joiner.id());
    EXPECT_EQ(res.client_id, joiner.id());
    return joiner.id();
  };

  // Helios: device 3 dies mid-collaboration, a joiner arrives at cycle 2.
  {
    fl::Fleet fleet = testing::make_fleet();
    net::NetworkOptions opts;
    opts.mode = net::NetMode::kSimulated;
    fl::NetworkSession session(fleet, opts);
    session.protocol().script_death(3, 1e-6);
    core::HeliosStrategy strategy{core::HeliosConfig{}};
    bool joined = false;
    strategy.set_cycle_hook([&](fl::Fleet& f, int cycle) {
      if (cycle == 2 && !joined) {
        joined = true;
        add_joiner(f);
      }
    });
    const fl::RunResult r = strategy.run(fleet, kCycles);
    ASSERT_EQ(r.rounds.size(), static_cast<std::size_t>(kCycles));
    EXPECT_FALSE(fleet.client(3).active());
    EXPECT_NEAR(final_accuracy(r), base_helios, 0.20);
  }

  // SyncFL: same churn, rounds driven in two segments around the join.
  {
    fl::Fleet fleet = testing::make_fleet();
    net::NetworkOptions opts;
    opts.mode = net::NetMode::kSimulated;
    fl::NetworkSession session(fleet, opts);
    session.protocol().script_death(3, 1e-6);
    fl::SyncFL sync;
    const fl::RunResult first = sync.run(fleet, 2);
    add_joiner(fleet);
    const fl::RunResult rest = sync.run(fleet, kCycles - 2);
    ASSERT_EQ(first.rounds.size() + rest.rounds.size(),
              static_cast<std::size_t>(kCycles));
    EXPECT_FALSE(fleet.client(3).active());
    EXPECT_NEAR(final_accuracy(rest), base_sync, 0.20);
  }
}

TEST(NetworkSessionTest, EveryStrategySurvivesLossAndDeath) {
  struct Case {
    const char* name;
    std::function<fl::RunResult(fl::Fleet&)> run;
    /// Synchronous rounds upload from every device, so the scripted death
    /// is observed in round 0. The event-driven strategies may finish the
    /// requested cycles before the slow straggler ever attempts an upload —
    /// then the death legitimately goes unobserved.
    bool death_observed = true;
  };
  const int kCycles = 2;
  const std::vector<Case> cases = {
      {"helios",
       [&](fl::Fleet& f) {
         return core::HeliosStrategy(core::HeliosConfig{}).run(f, kCycles);
       }},
      {"sync", [&](fl::Fleet& f) { return fl::SyncFL().run(f, kCycles); }},
      {"fedprox",
       [&](fl::Fleet& f) { return fl::FedProx(0.01F).run(f, kCycles); }},
      {"compressed",
       [&](fl::Fleet& f) {
         return fl::CompressedSyncFL(0.25).run(f, kCycles);
       }},
      {"async",
       [&](fl::Fleet& f) { return fl::AsyncFL(0).run(f, kCycles); },
       false},
      {"async-period",
       [&](fl::Fleet& f) { return fl::AsyncFL(2).run(f, kCycles); }},
      {"afo", [&](fl::Fleet& f) { return fl::Afo().run(f, kCycles); },
       false},
  };
  for (const Case& c : cases) {
    fl::Fleet fleet = testing::make_fleet();
    net::NetworkOptions opts;
    opts.mode = net::NetMode::kSimulated;
    opts.channel.loss_prob = 0.05;
    fl::NetworkSession session(fleet, opts);
    session.protocol().script_death(3, 1e-6);
    const fl::RunResult r = c.run(fleet);
    EXPECT_EQ(r.rounds.size(), static_cast<std::size_t>(kCycles)) << c.name;
    if (c.death_observed) {
      EXPECT_FALSE(fleet.client(3).active()) << c.name;
    }
  }
}

// Regression: a round whose entire cohort is lost (every frame dropped
// before the deadline, no retries left) must close as a clean no-op. The
// server model stays bit-identical, rotation regulation never advances
// (no forced neurons, C_s histogram untouched — a lost update is not a
// skipped cycle the server knows about), and the run still records every
// round with virtual time moving forward.
TEST(NetworkSessionTest, WholeCohortLostRoundIsACleanNoOp) {
  const int kCycles = 2;
  obs::TelemetrySink telemetry;
  fl::Fleet fleet = testing::make_fleet();
  fleet.set_telemetry(&telemetry);
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.loss_prob = 0.999999;  // effectively every frame lost
  opts.max_retries = 1;
  fl::NetworkSession session(fleet, opts);

  const std::vector<float> before(fleet.server().global().begin(),
                                  fleet.server().global().end());
  const fl::RunResult r =
      core::HeliosStrategy(core::HeliosConfig{}).run(fleet, kCycles);

  ASSERT_EQ(r.rounds.size(), static_cast<std::size_t>(kCycles));
  EXPECT_GT(r.rounds.back().virtual_time, 0.0);

  // Server model bit-unchanged: nothing was ever aggregated.
  ASSERT_EQ(fleet.server().global().size(), before.size());
  EXPECT_EQ(std::memcmp(fleet.server().global().data(), before.data(),
                        before.size() * sizeof(float)),
            0)
      << "a fully-lost round must not move the global model";

  // C_s counters untouched: rotation state only advances on delivery.
  for (const auto& c : fleet.clients()) {
    const obs::DeviceStats d = telemetry.dashboard().device(c->id());
    EXPECT_EQ(d.forced_neurons, 0) << "device " << c->id();
    EXPECT_EQ(d.cs_hist[1] + d.cs_hist[2] + d.cs_hist[3], 0)
        << "device " << c->id();
    EXPECT_GT(d.drops, 0) << "device " << c->id();
  }
  fleet.set_telemetry(nullptr);
}

// Same invariant for plain SyncFL: full loss leaves the global untouched.
TEST(NetworkSessionTest, SyncFLWholeCohortLostLeavesGlobalUnchanged) {
  fl::Fleet fleet = testing::make_fleet();
  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.loss_prob = 0.999999;
  opts.max_retries = 0;
  fl::NetworkSession session(fleet, opts);
  const std::vector<float> before(fleet.server().global().begin(),
                                  fleet.server().global().end());
  const fl::RunResult r = fl::SyncFL().run(fleet, 2);
  ASSERT_EQ(r.rounds.size(), 2U);
  EXPECT_EQ(std::memcmp(fleet.server().global().data(), before.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(CompressionTest, WireBytesTrackKeptFraction) {
  fl::Fleet fleet = testing::make_fleet();
  const net::WireLayout layout =
      net::make_wire_layout(fleet.server().reference_model());
  const std::vector<float> base(fleet.server().global());
  const fl::ClientUpdate update = fleet.client(0).run_cycle(
      base, fleet.server().global_buffers(), {});

  // Reverted entries equal the base, so the encoder's frame of a top-k
  // compressed update shrinks with the kept fraction under every codec.
  for (const codec::CodecId id :
       {codec::CodecId::kFp32, codec::CodecId::kInt8PerNeuron}) {
    std::size_t previous = std::numeric_limits<std::size_t>::max();
    for (const double keep : {1.0, 0.25, 0.05}) {
      fl::ClientUpdate u = update;
      const fl::CompressionStats stats =
          fl::compress_update_topk(u, base, keep);
      net::WireMessage msg;
      msg.client_id = u.client_id;
      msg.sample_count = u.sample_count;
      msg.mean_loss = u.mean_loss;
      msg.params = u.params;
      msg.buffers = u.buffers;
      msg.neuron_mask = u.trained_mask;
      net::CodecResult result;
      const auto frame =
          net::encode_frame_auto(msg, base, layout, id, &result);
      EXPECT_LT(frame.size(), previous)
          << codec::codec_name(id) << " keep " << keep;
      previous = frame.size();
      if (id != codec::CodecId::kFp32) continue;
      // fp32 reproduces the compressed update exactly; below keep 1 it
      // ships the kept indices and their values, 8 B per entry.
      EXPECT_TRUE(testing::bitwise_equal(
          net::decode_frame(frame, layout, base).params, u.params));
      if (keep < 1.0) {
        EXPECT_TRUE(result.sparse);
        EXPECT_EQ(frame.size(), net::kHeaderBytes + 8 * stats.kept_entries +
                                    4 * layout.buffer_count +
                                    net::kTrailerBytes);
      }
    }
  }
}

}  // namespace
}  // namespace helios
