#include "util/checkpoint_archive.h"

namespace helios::util {

const char* CheckpointArchive::need(std::size_t n) {
  if (remaining() < n) {
    throw CheckpointError("checkpoint payload truncated: need " +
                          std::to_string(n) + " bytes at offset " +
                          std::to_string(pos_) + ", have " +
                          std::to_string(remaining()));
  }
  const char* p = in_.data() + pos_;
  pos_ += n;
  return p;
}

void CheckpointArchive::io(bool& v) {
  std::uint8_t byte = v ? 1 : 0;
  io(byte);
  v = byte != 0;
}

void CheckpointArchive::io(std::string& s) {
  const std::uint32_t n = count(s.size(), 1);
  if (loading_) {
    s.assign(need(n), n);
  } else {
    put(s.data(), n);
  }
}

void CheckpointArchive::io(RngState& s) {
  for (std::uint64_t& word : s.words) io(word);
  io(s.cached_normal);
  io(s.has_cached_normal);
  expect((s.words[0] | s.words[1] | s.words[2] | s.words[3]) != 0,
         "checkpoint RNG state is all zero");
}

void CheckpointArchive::io(Rng& rng) {
  RngState s = rng.state();
  io(s);
  if (loading_) rng = Rng::from_state(s);
}

std::uint32_t CheckpointArchive::count(std::size_t n, std::size_t bytes_each) {
  auto c = static_cast<std::uint32_t>(n);
  io(c);
  expect(c <= remaining() / bytes_each, [&] {
    return "checkpoint count " + std::to_string(c) + " at offset " +
           std::to_string(pos_ - 4) + " exceeds the " +
           std::to_string(remaining()) + " payload bytes left";
  });
  return c;
}

void CheckpointArchive::expect_done(const std::string& what) const {
  expect(done(), [&] {
    return what + ": " + std::to_string(remaining()) +
           " unconsumed bytes (schema drift?)";
  });
}

}  // namespace helios::util
