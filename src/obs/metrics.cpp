#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

namespace helios::obs {

Histogram::Histogram(HistogramOptions opts) {
  if (opts.lowest <= 0.0 || opts.growth <= 1.0 || opts.buckets < 1) {
    throw std::invalid_argument("Histogram: need lowest > 0, growth > 1, "
                                "buckets >= 1");
  }
  bounds_.resize(static_cast<std::size_t>(opts.buckets));
  double b = opts.lowest;
  for (double& bound : bounds_) {
    bound = b;
    b *= opts.growth;
  }
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i].store(0);
}

std::size_t Histogram::bucket_index(double v) const {
  // Buckets are (bounds_[i-1], bounds_[i]]; anything above the last finite
  // bound lands in the overflow slot bounds_.size().
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(double v) {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
}

MetricsRegistry::Series& MetricsRegistry::find_or_create(
    std::string_view name, LabelSet&& labels, Kind kind,
    const HistogramOptions* opts) {
  std::sort(labels.begin(), labels.end());
  Key key{std::string(name), std::move(labels)};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.lower_bound(key);
  if (it != index_.end() && it->first == key) {
    if (it->second.kind != kind) {
      throw std::logic_error("MetricsRegistry: series '" + std::string(name) +
                             "' already registered with another type");
    }
    return it->second;
  }
  Series s{kind, nullptr, nullptr, nullptr};
  switch (kind) {
    case Kind::kCounter: s.counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: s.gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram:
      s.histogram = std::make_unique<Histogram>(opts ? *opts
                                                     : HistogramOptions{});
      break;
  }
  it = index_.emplace_hint(it, std::move(key), std::move(s));
  series_.push_back(&*it);
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, LabelSet labels) {
  return *find_or_create(name, std::move(labels), Kind::kCounter, nullptr)
              .counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, LabelSet labels) {
  return *find_or_create(name, std::move(labels), Kind::kGauge, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, LabelSet labels,
                                      HistogramOptions opts) {
  return *find_or_create(name, std::move(labels), Kind::kHistogram, &opts)
              .histogram;
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.size();
}

void json_escape(std::ostream& os, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

std::ostream& operator<<(std::ostream& os, JsonNumber n) {
  if (!std::isfinite(n.value)) return os << "null";
  return os << n.value;
}

namespace {

void write_labels_json(std::ostream& os, const LabelSet& labels) {
  os << '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) os << ',';
    os << '"';
    json_escape(os, labels[i].first);
    os << "\":\"";
    json_escape(os, labels[i].second);
    os << '"';
  }
  os << '}';
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; Helios uses dotted names.
std::string prom_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

/// Prometheus label values escape backslash, double quote and newline
/// (exposition format text/plain 0.0.4).
void prom_escape(std::ostream& os, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '"': os << "\\\""; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

void write_labels_prom(std::ostream& os, const LabelSet& labels,
                       const char* extra_key = nullptr,
                       const std::string& extra_value = {}) {
  if (labels.empty() && !extra_key) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << prom_name(k) << "=\"";
    prom_escape(os, v);
    os << '"';
  }
  if (extra_key) {
    if (!first) os << ',';
    os << extra_key << "=\"";
    prom_escape(os, extra_value);
    os << '"';
  }
  os << '}';
}

std::string format_double(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "[\n";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const auto& [key, s] = *series_[i];
    const auto& [name, labels] = key;
    if (i) os << ",\n";
    os << "  {\"name\":\"";
    json_escape(os, name);
    os << "\",\"labels\":";
    write_labels_json(os, labels);
    switch (s.kind) {
      case Kind::kCounter:
        os << ",\"type\":\"counter\",\"value\":"
           << format_double(s.counter->value());
        break;
      case Kind::kGauge:
        os << ",\"type\":\"gauge\",\"value\":"
           << format_double(s.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *s.histogram;
        os << ",\"type\":\"histogram\",\"count\":" << h.count()
           << ",\"sum\":" << format_double(h.sum()) << ",\"buckets\":[";
        for (std::size_t b = 0; b <= h.bucket_count(); ++b) {
          if (b) os << ',';
          const double le = b < h.bucket_count()
                                ? h.upper_bound(b)
                                : std::numeric_limits<double>::infinity();
          os << "{\"le\":";
          if (std::isinf(le)) {
            os << "\"+Inf\"";
          } else {
            os << format_double(le);
          }
          os << ",\"n\":" << h.bucket(b) << '}';
        }
        os << ']';
        break;
      }
    }
    os << '}';
  }
  os << "\n]\n";
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string last_family;
  for (const Entry* entry : series_) {
    const auto& [key, s] = *entry;
    const auto& [name, labels] = key;
    const std::string family = prom_name(name);
    if (family != last_family) {
      const char* type = s.kind == Kind::kCounter   ? "counter"
                         : s.kind == Kind::kGauge   ? "gauge"
                                                    : "histogram";
      // The dotted registry name doubles as the help string: it is the one
      // piece of metadata the exposition would otherwise lose to prom_name's
      // character mangling.
      os << "# HELP " << family << ' ' << name << '\n';
      os << "# TYPE " << family << ' ' << type << '\n';
      last_family = family;
    }
    switch (s.kind) {
      case Kind::kCounter:
      case Kind::kGauge: {
        const double v = s.kind == Kind::kCounter ? s.counter->value()
                                                  : s.gauge->value();
        os << family;
        write_labels_prom(os, labels);
        os << ' ' << format_double(v) << '\n';
        break;
      }
      case Kind::kHistogram: {
        const Histogram& h = *s.histogram;
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b <= h.bucket_count(); ++b) {
          cumulative += h.bucket(b);
          const std::string le =
              b < h.bucket_count() ? format_double(h.upper_bound(b)) : "+Inf";
          os << family << "_bucket";
          write_labels_prom(os, labels, "le", le);
          os << ' ' << cumulative << '\n';
        }
        os << family << "_sum";
        write_labels_prom(os, labels);
        os << ' ' << format_double(h.sum()) << '\n';
        os << family << "_count";
        write_labels_prom(os, labels);
        os << ' ' << h.count() << '\n';
        break;
      }
    }
  }
}

}  // namespace helios::obs
