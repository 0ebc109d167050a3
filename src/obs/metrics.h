// Metrics registry: named, labeled Counter / Gauge / Histogram instruments
// with JSON and Prometheus-text exporters.
//
// Design goals, in order:
//   1. Hot-path friendliness. Instruments are updated through atomics only
//      (no locks); callers resolve an instrument once (one mutex-guarded
//      registry lookup) and cache the reference. References stay valid for
//      the registry's lifetime — instruments are never moved or erased.
//   2. Label-first identity. A time series is (family name, label set);
//      labels carry the Helios dimensions (device, layer, cycle, strategy).
//   3. Self-describing export. `write_json` is the machine-readable dump
//      placed next to the CSV traces; `write_prometheus` emits the standard
//      text exposition format for scrape-style consumption.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace helios::obs {

/// Ordered key/value labels. Registry lookups canonicalize by sorting on
/// key, so {{"a","1"},{"b","2"}} and {{"b","2"},{"a","1"}} are one series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

namespace detail {
/// Lock-free add for atomic doubles (fetch_add on floating atomics is C++20
/// but not universally lowered; the CAS loop is portable and wait-free in
/// the uncontended single-writer case the simulator has).
inline void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically increasing value.
class Counter {
 public:
  void add(double v = 1.0) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { detail::atomic_add(value_, v); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-scale bucket layout: bucket i covers
/// (lowest * growth^(i-1), lowest * growth^i], bucket 0 covers
/// (-inf, lowest], plus an implicit +Inf overflow bucket.
struct HistogramOptions {
  double lowest = 1e-6;  // upper bound of the first bucket
  double growth = 4.0;   // per-bucket multiplier
  int buckets = 20;      // finite buckets (excluding +Inf)
};

/// Histogram with fixed log-scale buckets, atomically updated.
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  void observe(double v);

  /// Upper bound of finite bucket `i` (lowest * growth^i ... precomputed).
  double upper_bound(std::size_t i) const { return bounds_.at(i); }
  std::size_t bucket_count() const { return bounds_.size(); }  // finite only
  /// Index of the finite bucket `v` falls into; bucket_count() = overflow.
  std::size_t bucket_index(double v) const;

  std::uint64_t bucket(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Owns all instruments; hands out stable references keyed by
/// (family, labels). Thread-safe; lookups lock, updates do not.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, LabelSet labels = {});
  Gauge& gauge(std::string_view name, LabelSet labels = {});
  Histogram& histogram(std::string_view name, LabelSet labels = {},
                       HistogramOptions opts = {});

  /// JSON array of every series: name, type, labels, value(s).
  void write_json(std::ostream& os) const;
  /// Prometheus text exposition format ('.' in names becomes '_').
  void write_prometheus(std::ostream& os) const;

  std::size_t series_count() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  /// A series' identity: its name and its labels sorted by key.
  using Key = std::pair<std::string, LabelSet>;
  struct Series {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  using Entry = std::pair<const Key, Series>;

  Series& find_or_create(std::string_view name, LabelSet&& labels, Kind kind,
                         const HistogramOptions* opts);

  mutable std::mutex mu_;
  /// Every series by identity (map nodes never move, so references to
  /// their instruments stay valid).
  std::map<Key, Series> index_;
  /// The same series in creation order, which the exporters follow.
  std::vector<const Entry*> series_;
};

/// JSON string escaping shared by the exporters and the trace writer.
void json_escape(std::ostream& os, std::string_view s);

/// A double as a JSON number, shared by the summary and dashboard writers:
/// `os << JsonNumber{v}` prints v as `os << v` would, or `null` for NaN and
/// +-Inf, which JSON cannot spell.
struct JsonNumber {
  double value;
};
std::ostream& operator<<(std::ostream& os, JsonNumber n);

}  // namespace helios::obs
