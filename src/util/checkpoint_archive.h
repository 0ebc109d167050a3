// One definition per checkpoint section.
//
// A section is one function that hands each of its fields to a
// CheckpointArchive. A writing archive appends the field to the payload; a
// reading archive overwrites it with the next value from the payload. The
// same function therefore saves and restores the section, so the two
// directions cannot drift apart. The direction is a runtime value
// (loading()), so one virtual per class covers both.
//
//   void Thing::io(util::CheckpointArchive& ar) {
//     ar.io(count_);
//     ar.io(weights_);  // u32 length, then the elements
//     ar.expect(weights_.size() == expected_, "Thing: weights mismatch");
//   }
//
// Encoding: fixed-width little-endian scalars (bool as one byte), strings
// and vectors prefixed with a u32 length, RNG positions as four state
// words, the cached normal and its flag. Every length goes through count(),
// which refuses a count the rest of the payload cannot back before anything
// is sized by it. Checks that restored values are usable are expect()
// calls, which throw CheckpointError on restore and cost a writer nothing.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace helios::util {

static_assert(std::endian::native == std::endian::little &&
                  sizeof(std::size_t) == 8,
              "checkpoints store little-endian values and 64-bit sizes");

/// Any checkpoint problem: framing (bad magic / version / CRC / length),
/// schema drift, a count the payload cannot back, or restored state the run
/// cannot use (an architecture or roster mismatch, an out-of-range value).
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Fixed-width scalars the archive encodes as their own bytes.
template <typename T>
concept CheckpointScalar =
    std::is_arithmetic_v<T> && !std::is_same_v<T, bool> &&
    (sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);

class CheckpointArchive {
 public:
  /// Encoded size of an RngState: four state words, the cached normal and
  /// its flag.
  static constexpr std::size_t kRngBytes = 4 * 8 + 8 + 1;

  /// A writing archive; take() hands over the payload.
  CheckpointArchive() = default;
  /// A reading archive over `payload`, which must outlive it. Every read
  /// past its end throws CheckpointError.
  explicit CheckpointArchive(std::string_view payload)
      : in_(payload), loading_(true) {}

  bool loading() const { return loading_; }

  template <CheckpointScalar T>
  void io(T& v) {
    if (loading_) {
      std::memcpy(&v, need(sizeof v), sizeof v);
    } else {
      put(&v, sizeof v);
    }
  }
  /// One byte; any non-zero byte reads as true.
  void io(bool& v);
  void io(std::string& s);
  /// Refuses an all-zero xoshiro state on restore: that generator draws
  /// zeros forever, and its rejection sampling never returns.
  void io(RngState& s);
  void io(Rng& rng);

  template <CheckpointScalar T>
  void io(std::vector<T>& v) {
    const std::uint32_t n = count(v.size(), sizeof(T));
    if (loading_) {
      v.resize(n);
      if (n != 0) std::memcpy(v.data(), need(n * sizeof(T)), n * sizeof(T));
    } else if (n != 0) {
      put(v.data(), n * sizeof(T));
    }
  }

  /// A field behind a getter and a setter: writes `value`; on restore,
  /// reads a fresh value and passes it to `set`.
  template <typename T, typename Set>
  void io(const T& value, Set&& set) {
    if (!loading_) {
      io(const_cast<T&>(value));  // a writing archive only reads it
      return;
    }
    T fresh{};
    io(fresh);
    set(std::move(fresh));
  }

  /// A container length. Writes `n` as a u32; on restore reads one and
  /// checks that the rest of the payload can hold that many elements of at
  /// least `bytes_each` encoded bytes, so nothing is sized by a count the
  /// payload cannot back. Returns the length.
  std::uint32_t count(std::size_t n, std::size_t bytes_each);

  /// An ordered map: its size, then per entry the key followed by
  /// `entry(key, value)`, which passes the value's fields through the
  /// archive. A restore rebuilds the map from the payload and refuses a
  /// repeated key. `entry_bytes` is an entry's smallest encoding.
  template <typename K, typename V, typename Entry>
  void io_map(std::map<K, V>& map, std::size_t entry_bytes, Entry&& entry) {
    const std::uint32_t n = count(map.size(), entry_bytes);
    if (!loading_) {
      for (auto& [key, value] : map) {
        K k = key;
        io(k);
        entry(k, value);
      }
      return;
    }
    map.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      K key{};
      io(key);
      V value{};
      entry(key, value);
      expect(map.emplace(key, std::move(value)).second,
             "checkpoint map repeats a key");
    }
  }

  /// A nested section behind a u64 byte length, so a restore can verify
  /// that `body(archive)` consumed it exactly; `what` names it in that
  /// error.
  template <typename Body>
  void section(const std::string& what, Body&& body) {
    if (!loading_) {
      const std::size_t at = out_.size();
      std::uint64_t length = 0;
      io(length);
      body(*this);
      length = out_.size() - at - sizeof length;
      std::memcpy(out_.data() + at, &length, sizeof length);
      return;
    }
    std::uint64_t length = 0;
    io(length);
    CheckpointArchive sub(std::string_view(need(length), length));
    body(sub);
    sub.expect_done(what);
  }

  /// Restore-time check: throws CheckpointError unless `ok`. `what` is the
  /// message, or a callable that builds it only on failure. A writing
  /// archive ignores it.
  template <typename What>
  void expect(bool ok, What&& what) const {
    if (ok || !loading_) return;
    if constexpr (std::is_invocable_v<What>) {
      throw CheckpointError(std::string(what()));
    } else {
      throw CheckpointError(std::string(what));
    }
  }

  /// Restore-time check that the payload was consumed exactly.
  void expect_done(const std::string& what) const;

  const std::string& buffer() const { return out_; }
  std::string take() { return std::move(out_); }
  std::size_t remaining() const { return in_.size() - pos_; }
  bool done() const { return pos_ == in_.size(); }

 private:
  void put(const void* p, std::size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  /// The next `n` payload bytes; throws CheckpointError past the end.
  const char* need(std::size_t n);

  std::string out_;
  std::string_view in_;
  std::size_t pos_ = 0;
  bool loading_ = false;
};

}  // namespace helios::util
