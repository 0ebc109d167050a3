// Hostile frames through net::decode_frame: a deterministic mutator over
// golden encodes of a LeNet update (fp32 / fp16 / int8pn × masked or not ×
// dense or top-k sparse). Mutants are bit flips, truncations, lying header
// fields, splices of two goldens, random payload bytes and appended bytes;
// most get their CRC recomputed so that they reach the field parsers
// behind the integrity check. The contract: decode returns, or throws
// net::WireError — never another exception, and under the sanitized presets
// never a sanitizer report.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "models/zoo.h"
#include "net/wire.h"
#include "util/rng.h"

namespace helios {
namespace {

using codec::CodecId;

struct Golden {
  std::string name;
  std::vector<std::uint8_t> frame;
};

struct HostileFixture {
  nn::Model model;
  net::WireLayout layout;
  std::vector<float> base;
  std::vector<Golden> goldens;

  HostileFixture()
      : model(models::lenet_spec({1, 16, 16, 10}).build(21)),
        layout(net::make_wire_layout(model)) {
    util::Rng rng(0x60DE);
    base.resize(layout.param_count);
    for (float& v : base) v = static_cast<float>(rng.normal() * 0.1);
    std::vector<float> buffers(layout.buffer_count, 0.5F);
    std::vector<std::uint8_t> mask(
        static_cast<std::size_t>(layout.neuron_total));
    for (std::size_t j = 0; j < mask.size(); ++j) mask[j] = j % 4 != 1;
    for (CodecId codec :
         {CodecId::kFp32, CodecId::kFp16, CodecId::kInt8PerNeuron}) {
      for (bool masked : {false, true}) {
        for (bool topk : {false, true}) {
          const std::span<const std::uint8_t> m =
              masked ? std::span<const std::uint8_t>(mask)
                     : std::span<const std::uint8_t>();
          std::vector<float> params = base;
          for (std::size_t f = 0; f < params.size(); ++f) {
            if (!net::entry_shipped(layout, m, f)) continue;
            if (topk ? f % 499 == 0 : rng.uniform() < 0.8) {
              params[f] += static_cast<float>(rng.normal() * 0.01);
            }
          }
          net::WireMessage msg;
          msg.client_id = 3;
          msg.sample_count = 64;
          msg.mean_loss = 0.5;
          msg.params = params;
          msg.buffers = buffers;
          msg.neuron_mask = m;
          net::CodecResult result;
          goldens.push_back(
              {std::string(codec::codec_name(codec)) +
                   (masked ? "_masked" : "") + (topk ? "_sparse" : "_dense"),
               net::encode_frame_auto(msg, base, layout, codec, &result)});
          EXPECT_EQ(result.sparse, topk) << goldens.back().name;
        }
      }
    }
  }
};

void put_le(std::vector<std::uint8_t>& frame, std::size_t at, std::uint64_t v,
            std::size_t width) {
  for (std::size_t b = 0; b < width && at + b < frame.size(); ++b) {
    frame[at + b] = static_cast<std::uint8_t>(v >> (8 * b));
  }
}

std::uint64_t get_le(const std::vector<std::uint8_t>& frame, std::size_t at,
                     std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < width && at + b < frame.size(); ++b) {
    v |= static_cast<std::uint64_t>(frame[at + b]) << (8 * b);
  }
  return v;
}

/// One deterministic mutant of a golden; `what` names the mutation.
std::vector<std::uint8_t> mutate(const std::vector<Golden>& goldens,
                                 util::Rng& rng, std::string& what) {
  const auto pick = [&](std::uint64_t n) {
    return static_cast<std::size_t>(rng.uniform_int(n));
  };
  const Golden& g = goldens[pick(goldens.size())];
  std::vector<std::uint8_t> m = g.frame;
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
      // A lying header field: flags, neuron_total, param/buffer/payload
      // counts, codec id, packed payload bytes.
      struct Field {
        std::size_t at;
        std::size_t width;
      };
      static const Field kFields[] = {{6, 2},  {12, 4}, {16, 8}, {24, 8},
                                      {32, 8}, {56, 4}, {60, 4}};
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
      // Random bytes over part of everything after the header.
      const std::size_t at =
          net::kHeaderBytes + pick(m.size() - net::kHeaderBytes);
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
  // Most mutants get a valid CRC, so they reach the parsers behind it.
  if (pick(8) != 0 && m.size() >= net::kTrailerBytes) {
    const std::uint32_t crc = net::crc32(
        std::span<const std::uint8_t>(m).first(m.size() - net::kTrailerBytes));
    put_le(m, m.size() - net::kTrailerBytes, crc, net::kTrailerBytes);
    what += " (CRC fixed)";
  }
  return m;
}

TEST(HostileFrameTest, GoldensDecode) {
  const HostileFixture fx;
  ASSERT_EQ(fx.goldens.size(), 12U);
  for (const Golden& g : fx.goldens) {
    EXPECT_NO_THROW(net::decode_frame(g.frame, fx.layout, fx.base)) << g.name;
  }
}

TEST(HostileFrameTest, MutantsDecodeOrThrowWireError) {
  const HostileFixture fx;
  util::Rng rng(0xF2A3E);
  constexpr int kMutants = 6000;
  int decoded = 0;
  int rejected = 0;
  std::string what;
  for (int i = 0; i < kMutants; ++i) {
    const std::vector<std::uint8_t> m = mutate(fx.goldens, rng, what);
    try {
      const net::DecodedMessage d = net::decode_frame(m, fx.layout, fx.base);
      ASSERT_EQ(d.params.size(), fx.layout.param_count) << what;
      ASSERT_EQ(d.buffers.size(), fx.layout.buffer_count) << what;
      ++decoded;
    } catch (const net::WireError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << "mutant " << i << " (" << what << ") threw " << e.what();
    }
  }
  // Both outcomes occur: mutants reach the decoder's end and its checks.
  EXPECT_GT(decoded, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 2);
}

TEST(HostileFrameTest, EveryTruncationOfEveryGoldenIsRejected) {
  // A cut frame fails the CRC, or the field checks when the cut happens to
  // leave a valid CRC: never a read past the end.
  const HostileFixture fx;
  for (const Golden& g : fx.goldens) {
    for (std::size_t cut = 0; cut < g.frame.size();
         cut += 1 + cut / 16) {
      const std::span<const std::uint8_t> t =
          std::span<const std::uint8_t>(g.frame).first(cut);
      EXPECT_THROW(net::decode_frame(t, fx.layout, fx.base), net::WireError)
          << g.name << " cut at " << cut;
    }
  }
}

}  // namespace
}  // namespace helios
