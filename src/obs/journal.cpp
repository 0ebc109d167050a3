#include "obs/journal.h"

#include <cstdio>

namespace helios::obs {

RunJournal::RunJournal(std::ostream* os)
    : os_(os), epoch_(std::chrono::steady_clock::now()) {
  if (os_ == nullptr) return;
  commit(line(Stamp{}, RunStartEvent{kSchemaVersion}, /*wall_ms=*/0.0));
}

RunJournal::RunJournal(std::ostream* os, std::uint64_t resumed_events)
    : os_(os), epoch_(std::chrono::steady_clock::now()) {
  if (os_ == nullptr) return;
  events_ = resumed_events;
}

RunJournal::~RunJournal() { close(); }

double RunJournal::wall_ms() const {
  const std::chrono::duration<double, std::milli> dt =
      std::chrono::steady_clock::now() - epoch_;
  return dt.count();
}

void RunJournal::commit(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  os_->write(line.data(), static_cast<std::streamsize>(line.size()));
  ++events_;
}

void RunJournal::put(std::string& out, std::string_view key, long long v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

/// %.17g: enough digits that strtod returns the exact same double, so a
/// journal parse -> replay round trip accumulates bit-identical sums.
void RunJournal::put(std::string& out, std::string_view key, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += ",\"";
  out += key;
  out += "\":";
  out += buf;
}

void RunJournal::put(std::string& out, std::string_view key,
                     std::string_view v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  // Profile names and strategy names are plain identifiers in practice, but
  // escape anyway so the line stays parseable whatever they contain.
  for (char c : v) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Starts a line with the schema version, type and stamps. The journal's
/// wall clock is passed in because only enabled paths may read clocks.
std::string RunJournal::open_line(std::string_view type, const Stamp& s,
                                  double wall_ms) {
  std::string out;
  out.reserve(192);
  out = "{\"v\":1,\"t\":\"";
  out += type;
  out += '"';
  put(out, "r", s.round);
  put(out, "dev", s.device);
  put(out, "vt", s.vt);
  put(out, "w", wall_ms);
  return out;
}

void RunJournal::close() {
  if (os_ == nullptr) return;
  const double wall = wall_ms();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  const std::string end = line(Stamp{}, RunEndEvent{events_ + 1}, wall);
  os_->write(end.data(), static_cast<std::streamsize>(end.size()));
  os_->flush();
  ++events_;
  closed_ = true;
}

}  // namespace helios::obs
