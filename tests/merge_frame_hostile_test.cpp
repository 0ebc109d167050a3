// Hostile HMF1 merge frames through StreamingAccumulator::decode_frame and
// merge_frame. The goldens are the frames an aggregator tree sends: edge
// frames of a depth-2 tree and the edge and regional frames of a depth-3
// tree, for a model without buffers (an MLP) and one with BatchNorm running
// statistics, so the buffer section is non-empty. A deterministic mutator
// makes bit flips, truncations, lying magic/reserved/count/folded fields,
// splices, random payload bytes and appended bytes; most mutants get their
// CRC recomputed so they reach the checks behind it.
//
// The contract, for every mutant and both geometries: decode_frame and
// merge_frame accept the same frames, except that merge_frame also refuses a
// folded count that would overflow its parent's; an accepted frame leaves
// merge_frame's parent bit for bit where merge(decode_frame(...)) leaves it;
// a rejected one throws net::WireError — never another exception, and under
// the sanitized presets never a sanitizer report — and leaves the parent
// untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "agg/accumulator.h"
#include "models/zoo.h"
#include "net/wire.h"
#include "test_support.h"
#include "util/rng.h"

namespace helios {
namespace {

using agg::StreamingAccumulator;
using Frame = std::vector<std::uint8_t>;

struct Golden {
  std::string name;
  Frame frame;
};

/// One model's geometry, the goldens of its trees, and the parent the
/// mutants are merged into (a root that already holds an edge's sums).
struct Target {
  std::string model;
  nn::Model reference;
  agg::ModelGeometry geo;
  std::vector<Golden> goldens;
  StreamingAccumulator parent;

  Target(std::string name, const models::ModelSpec& spec)
      : model(std::move(name)),
        reference(spec.build(5)),
        geo(agg::make_geometry(reference)) {
    // Six devices; a depth-2 tree of two edges and a depth-3 tree of four
    // edges under two regionals, placed by id % edges as the tree does.
    util::Rng rng(0x4D46 + geo.param_count);
    struct Update {
      std::vector<float> params;
      std::vector<float> buffers;
      std::vector<std::uint8_t> mask;
    };
    std::vector<Update> updates(6);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      Update& u = updates[i];
      u.params.resize(geo.param_count);
      for (float& v : u.params) v = static_cast<float>(rng.normal());
      u.buffers.resize(geo.buffer_count);
      for (float& v : u.buffers) v = static_cast<float>(rng.uniform());
      if (i % 2 == 1) {
        u.mask.resize(geo.neurons.size());
        for (auto& b : u.mask) b = rng.uniform_int(3) != 0;
      }
    }
    const auto edge_frames = [&](int edges, const std::string& tree) {
      std::vector<Frame> frames;
      for (int e = 0; e < edges; ++e) {
        StreamingAccumulator acc(&geo);
        for (std::size_t i = 0; i < updates.size(); ++i) {
          if (static_cast<int>(i) % edges != e) continue;
          const agg::UpdateView v{static_cast<int>(i), updates[i].params,
                                  updates[i].buffers, updates[i].mask};
          acc.fold(v, {1.0 + 0.5 * static_cast<double>(i), 0.75}, true);
        }
        frames.push_back(acc.encode_frame());
        goldens.push_back({model + " " + tree + " edge" + std::to_string(e),
                           frames.back()});
      }
      return frames;
    };
    edge_frames(2, "depth-2");
    const std::vector<Frame> edges = edge_frames(4, "depth-3");
    for (int r = 0; r < 2; ++r) {
      StreamingAccumulator regional(&geo);
      regional.merge_frame(edges[2 * r]);
      regional.merge_frame(edges[2 * r + 1]);
      goldens.push_back({model + " depth-3 regional" + std::to_string(r),
                         regional.encode_frame()});
    }
    parent = StreamingAccumulator::decode_frame(goldens.front().frame, &geo);
  }
};

/// Bit-for-bit equality of two accumulators' sums, masses and counts.
bool same_bits(const StreamingAccumulator& a, const StreamingAccumulator& b) {
  const double ad = a.buffer_den();
  const double bd = b.buffer_den();
  return a.folded() == b.folded() && testing::bitwise_equal(a.acc(), b.acc()) &&
         testing::bitwise_equal(a.den(), b.den()) &&
         testing::bitwise_equal(a.buffer_acc(), b.buffer_acc()) &&
         std::memcmp(&ad, &bd, sizeof ad) == 0;
}

struct Outcomes {
  int merged = 0;
  int rejected = 0;
};

/// Feeds one frame through decode_frame and merge_frame into `t`'s parent
/// and checks the contract above.
void check(const Target& t, std::span<const std::uint8_t> frame,
           const std::string& what, Outcomes& out) {
  std::optional<StreamingAccumulator> decoded;
  try {
    decoded = StreamingAccumulator::decode_frame(frame, &t.geo);
  } catch (const net::WireError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": decode_frame threw " << e.what();
    return;
  }
  StreamingAccumulator merged = t.parent;
  bool accepted = true;
  try {
    merged.merge_frame(frame);
  } catch (const net::WireError&) {
    accepted = false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": merge_frame threw " << e.what();
    return;
  }
  const bool overflows =
      decoded.has_value() &&
      decoded->folded() >
          std::numeric_limits<std::uint64_t>::max() - t.parent.folded();
  EXPECT_EQ(accepted, decoded.has_value() && !overflows)
      << what << " on " << t.model << ": decode and merge disagree";
  if (accepted && decoded.has_value()) {
    StreamingAccumulator want = t.parent;
    want.merge(*decoded);
    EXPECT_TRUE(same_bits(merged, want))
        << what << " on " << t.model
        << ": merge_frame differs from merge(decode_frame)";
    ++out.merged;
  } else if (!accepted) {
    EXPECT_TRUE(same_bits(merged, t.parent))
        << what << " on " << t.model << ": a rejected frame changed the parent";
    ++out.rejected;
  }
}

void put_le(Frame& frame, std::size_t at, std::uint64_t v, std::size_t width) {
  for (std::size_t b = 0; b < width && at + b < frame.size(); ++b) {
    frame[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

std::uint64_t get_le(const Frame& frame, std::size_t at, std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < width && at + b < frame.size(); ++b) {
    v |= static_cast<std::uint64_t>(frame[at + b]) << (8 * b);
  }
  return v;
}

constexpr std::size_t kHeader = 32;
constexpr std::size_t kTrailer = 4;

void fix_crc(Frame& m) {
  if (m.size() < kTrailer) return;
  const std::uint32_t crc = net::crc32(
      std::span<const std::uint8_t>(m).first(m.size() - kTrailer));
  put_le(m, m.size() - kTrailer, crc, kTrailer);
}

/// One deterministic mutant of a golden; `what` names the mutation.
Frame mutate(const std::vector<Golden>& goldens, util::Rng& rng,
             std::string& what) {
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  const Golden& g = goldens[pick(goldens.size())];
  Frame m = g.frame;
  what = g.name;
  switch (pick(6)) {
    case 0: {
      const std::size_t flips = 1 + pick(8);
      for (std::size_t i = 0; i < flips; ++i) {
        m[pick(m.size())] ^= static_cast<std::uint8_t>(1U << pick(8));
      }
      what += " bit flips";
      break;
    }
    case 1:
      m.resize(pick(m.size()));
      what += " truncated to " + std::to_string(m.size());
      break;
    case 2: {
      // A lying header field: magic, reserved word, param/buffer counts,
      // folded count.
      struct Field {
        std::size_t at;
        std::size_t width;
      };
      static const Field kFields[] = {
          {0, 4}, {4, 4}, {8, 8}, {16, 8}, {24, 8}};
      const Field f = kFields[pick(std::size(kFields))];
      const std::uint64_t old = get_le(m, f.at, f.width);
      const std::uint64_t lies[] = {0,
                                    1,
                                    old + 1,
                                    old - 1,
                                    old * 2,
                                    old / 2,
                                    ~std::uint64_t{0},
                                    std::uint64_t{1} << (8 * f.width - 1),
                                    rng.next_u64()};
      put_le(m, f.at, lies[pick(std::size(lies))], f.width);
      what += " field @" + std::to_string(f.at);
      break;
    }
    case 3: {
      // The head of one golden joined to the tail of another.
      const Golden& other = goldens[pick(goldens.size())];
      const std::size_t head = pick(m.size());
      const std::size_t tail = pick(other.frame.size());
      m.resize(head);
      m.insert(m.end(), other.frame.begin() + static_cast<long>(tail),
               other.frame.end());
      what += " spliced with " + other.name;
      break;
    }
    case 4: {
      // Random bytes over part of the sums: NaNs, infinities, -0.0 and
      // denormals all merge.
      const std::size_t at = kHeader + pick(m.size() - kHeader);
      const std::size_t len =
          1 + pick(std::min<std::size_t>(64, m.size() - at));
      for (std::size_t i = 0; i < len; ++i) {
        m[at + i] = static_cast<std::uint8_t>(rng.next_u64());
      }
      what += " random payload bytes";
      break;
    }
    default: {
      const std::size_t extra = 1 + pick(16);
      for (std::size_t i = 0; i < extra; ++i) {
        m.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      }
      what += " appended bytes";
      break;
    }
  }
  if (pick(8) != 0) {
    fix_crc(m);
    what += " (CRC fixed)";
  }
  return m;
}

struct Fixture {
  Target mlp{"mlp", models::mlp_spec({1, 4, 4, 3}, 8)};
  Target bn{"resnet-bn", models::resnet18_lite_spec({1, 8, 8, 4}, 1, 1)};
};

TEST(HostileMergeFrameTest, GoldensMergeLikeDecodeThenMerge) {
  const Fixture fx;
  EXPECT_EQ(fx.mlp.geo.buffer_count, 0U);
  EXPECT_GT(fx.bn.geo.buffer_count, 0U);
  for (const Target* t : {&fx.mlp, &fx.bn}) {
    ASSERT_EQ(t->goldens.size(), 8U);
    Outcomes out;
    for (const Golden& g : t->goldens) check(*t, g.frame, g.name, out);
    EXPECT_EQ(out.merged, 8) << t->model;
  }
}

TEST(HostileMergeFrameTest, MutantsMergeOrThrowWireError) {
  const Fixture fx;
  std::vector<Golden> all = fx.mlp.goldens;
  all.insert(all.end(), fx.bn.goldens.begin(), fx.bn.goldens.end());
  util::Rng rng(0x4D45);
  constexpr int kMutants = 4000;
  Outcomes out;
  std::string what;
  for (int i = 0; i < kMutants; ++i) {
    const Frame m = mutate(all, rng, what);
    // Each mutant meets both geometries: a splice may carry one model's
    // head at the other's length.
    check(fx.mlp, m, what, out);
    check(fx.bn, m, what, out);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopped at mutant " << i << " (" << what << ")";
    }
  }
  // Both outcomes occur: mutants reach the adds and every check.
  EXPECT_GT(out.merged, kMutants / 20);
  EXPECT_GT(out.rejected, kMutants);
}

TEST(HostileMergeFrameTest, EveryTruncationIsRejectedAndLeavesParentAlone) {
  const Fixture fx;
  for (const Target* t : {&fx.mlp, &fx.bn}) {
    for (const Golden& g : t->goldens) {
      Outcomes out;
      for (std::size_t cut = 0; cut < g.frame.size(); ++cut) {
        check(*t, std::span<const std::uint8_t>(g.frame).first(cut),
              g.name + " cut at " + std::to_string(cut), out);
      }
      EXPECT_EQ(out.rejected, static_cast<int>(g.frame.size())) << g.name;
      ASSERT_FALSE(::testing::Test::HasFailure()) << g.name;
    }
  }
}

TEST(HostileMergeFrameTest, LyingFieldsWithValidCrcAreCheckedBeforeAnyAdd) {
  const Fixture fx;
  const Target& t = fx.bn;
  const Frame& golden = t.goldens.back().frame;
  Outcomes out;
  const auto lie = [&](std::size_t at, std::size_t width, std::uint64_t v) {
    Frame m = golden;
    put_le(m, at, v, width);
    fix_crc(m);
    check(t, m, "field @" + std::to_string(at) + " = " + std::to_string(v),
          out);
  };
  lie(0, 4, 0x31464D49U);                    // magic "IMF1"
  lie(4, 4, 1);                              // reserved word
  lie(8, 8, t.geo.param_count + 1);          // param count
  lie(8, 8, t.geo.buffer_count);             // param count
  lie(16, 8, t.geo.buffer_count + 1);        // buffer count
  lie(16, 8, 0);                             // buffer count
  lie(24, 8, 0);                             // folded count: none
  // A folded count the parent cannot add: merge_frame refuses it (the
  // second would wrap the parent's count to 0, an empty node with sums).
  lie(24, 8, ~std::uint64_t{0});
  lie(24, 8, std::uint64_t{0} - t.parent.folded());
  EXPECT_EQ(out.rejected, 9);
  // Any other count is accepted, and both paths add the same one.
  lie(24, 8, ~std::uint64_t{0} - t.parent.folded());
  EXPECT_EQ(out.merged, 1);
}

TEST(HostileMergeFrameTest, NegativeZeroSumsDecodeBitExact) {
  // decode_frame copies, so a -0.0 in a frame decodes as -0.0 (an add
  // into a zeroed accumulator would give +0.0); merge_frame adds it into
  // the parent exactly as merge(decode_frame) does.
  const Fixture fx;
  const Target& t = fx.bn;
  Frame m = t.goldens.front().frame;
  const std::uint64_t neg_zero = std::uint64_t{1} << 63;
  const std::size_t n = 2 * t.geo.param_count + t.geo.buffer_count + 1;
  for (std::size_t i = 0; i < n; i += 3) put_le(m, kHeader + 8 * i, neg_zero, 8);
  fix_crc(m);
  const StreamingAccumulator d = StreamingAccumulator::decode_frame(m, &t.geo);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d.acc()[0], sizeof bits);
  EXPECT_EQ(bits, neg_zero);
  std::memcpy(&bits, &d.acc()[3], sizeof bits);
  EXPECT_EQ(bits, neg_zero);
  Outcomes out;
  check(t, m, "-0.0 sums", out);
  EXPECT_EQ(out.merged, 1);
  // Into a fresh accumulator, too: 0.0 + -0.0 is +0.0 on both paths.
  StreamingAccumulator fresh(&t.geo);
  StreamingAccumulator via_merge(&t.geo);
  fresh.merge_frame(m);
  via_merge.merge(d);
  EXPECT_TRUE(same_bits(fresh, via_merge));
}

}  // namespace
}  // namespace helios
