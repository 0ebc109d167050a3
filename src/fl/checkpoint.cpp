#include "fl/checkpoint.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "fl/fleet.h"
#include "fl/metrics.h"
#include "fl/strategy.h"
#include "fl/transport.h"
#include "net/wire.h"
#include "obs/telemetry.h"
#include "util/atomic_file.h"

namespace helios::fl {
namespace {

constexpr char kMagic[8] = {'H', 'E', 'L', 'I', 'O', 'S', 'F', 'K'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 4;  // magic, ver, size, crc

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  b[0] = static_cast<char>(v & 0xFF);
  b[1] = static_cast<char>((v >> 8) & 0xFF);
  b[2] = static_cast<char>((v >> 16) & 0xFF);
  b[3] = static_cast<char>((v >> 24) & 0xFF);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(b, 8);
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint32_t payload_crc(std::string_view payload) {
  return net::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()));
}

}  // namespace

// ---- CheckpointWriter -------------------------------------------------------

void CheckpointWriter::u32(std::uint32_t v) { put_u32(out_, v); }
void CheckpointWriter::u64(std::uint64_t v) { put_u64(out_, v); }

void CheckpointWriter::f32(float v) {
  std::uint32_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u32(bits);
}

void CheckpointWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void CheckpointWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void CheckpointWriter::rng(const util::RngState& s) {
  for (int i = 0; i < 4; ++i) u64(s.words[i]);
  f64(s.cached_normal);
  boolean(s.has_cached_normal);
}

void CheckpointWriter::vec_f32(const std::vector<float>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (float x : v) f32(x);
}

void CheckpointWriter::vec_f64(const std::vector<double>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (double x : v) f64(x);
}

void CheckpointWriter::vec_i32(const std::vector<int>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (int x : v) i32(x);
}

void CheckpointWriter::vec_u8(const std::vector<std::uint8_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (std::uint8_t x : v) u8(x);
}

void CheckpointWriter::vec_size(const std::vector<std::size_t>& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  for (std::size_t x : v) u64(static_cast<std::uint64_t>(x));
}

void CheckpointWriter::blob(const std::string& bytes) {
  u64(bytes.size());
  out_.append(bytes);
}

// ---- CheckpointReader -------------------------------------------------------

const char* CheckpointReader::need(std::size_t n) {
  if (data_.size() - pos_ < n) {
    throw CheckpointError("checkpoint payload truncated: need " +
                          std::to_string(n) + " bytes at offset " +
                          std::to_string(pos_) + ", have " +
                          std::to_string(data_.size() - pos_));
  }
  const char* p = data_.data() + pos_;
  pos_ += n;
  return p;
}

std::uint8_t CheckpointReader::u8() {
  return static_cast<std::uint8_t>(*need(1));
}
std::uint32_t CheckpointReader::u32() { return get_u32(need(4)); }
std::uint64_t CheckpointReader::u64() { return get_u64(need(8)); }

float CheckpointReader::f32() {
  const std::uint32_t bits = u32();
  float v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double CheckpointReader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string CheckpointReader::str() {
  const std::uint32_t n = u32();
  return std::string(need(n), n);
}

util::RngState CheckpointReader::rng() {
  util::RngState s;
  for (int i = 0; i < 4; ++i) s.words[i] = u64();
  s.cached_normal = f64();
  s.has_cached_normal = boolean();
  return s;
}

std::vector<float> CheckpointReader::vec_f32() {
  const std::uint32_t n = count(4);
  std::vector<float> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = f32();
  return v;
}

std::vector<double> CheckpointReader::vec_f64() {
  const std::uint32_t n = count(8);
  std::vector<double> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = f64();
  return v;
}

std::vector<int> CheckpointReader::vec_i32() {
  const std::uint32_t n = count(4);
  std::vector<int> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = i32();
  return v;
}

std::vector<std::uint8_t> CheckpointReader::vec_u8() {
  const std::uint32_t n = count(1);
  std::vector<std::uint8_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) v[i] = u8();
  return v;
}

std::vector<std::size_t> CheckpointReader::vec_size() {
  const std::uint32_t n = count(8);
  std::vector<std::size_t> v(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::size_t>(u64());
  }
  return v;
}

std::string CheckpointReader::blob() {
  const std::uint64_t n = u64();
  return std::string(need(static_cast<std::size_t>(n)),
                     static_cast<std::size_t>(n));
}

std::uint32_t CheckpointReader::count(std::size_t bytes_each) {
  const std::uint32_t n = u32();
  if (n > remaining() / bytes_each) {
    throw CheckpointError("checkpoint count " + std::to_string(n) +
                          " at offset " + std::to_string(pos_ - 4) +
                          " exceeds the " + std::to_string(remaining()) +
                          " payload bytes left");
  }
  return n;
}

void CheckpointReader::expect_done(const char* what) const {
  if (!done()) {
    throw CheckpointError(std::string(what) + ": " +
                          std::to_string(remaining()) +
                          " unconsumed bytes (schema drift?)");
  }
}

// ---- File framing -----------------------------------------------------------

void write_checkpoint_file(const std::string& path, std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic, sizeof kMagic);
  put_u32(frame, kCheckpointVersion);
  put_u64(frame, payload.size());
  put_u32(frame, payload_crc(payload));
  frame.append(payload);
  util::atomic_write_file(path, frame);
}

std::string read_checkpoint_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw CheckpointError("checkpoint missing or unreadable: " + path);
  }
  std::string data((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  if (data.size() < kHeaderBytes) {
    throw CheckpointError("checkpoint header truncated: " + path);
  }
  if (std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
    throw CheckpointError("checkpoint has wrong magic (not a Helios "
                          "checkpoint): " + path);
  }
  const std::uint32_t version = get_u32(data.data() + 8);
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint schema version " +
                          std::to_string(version) + " unsupported (expected " +
                          std::to_string(kCheckpointVersion) + "): " + path);
  }
  const std::uint64_t size = get_u64(data.data() + 12);
  if (data.size() < kHeaderBytes + size) {
    throw CheckpointError("checkpoint payload truncated: " + path);
  }
  if (data.size() > kHeaderBytes + size) {
    throw CheckpointError("checkpoint has trailing bytes: " + path);
  }
  const std::uint32_t want = get_u32(data.data() + 20);
  const std::string_view payload(data.data() + kHeaderBytes,
                                 static_cast<std::size_t>(size));
  if (payload_crc(payload) != want) {
    throw CheckpointError("checkpoint CRC mismatch (corrupt file): " + path);
  }
  return std::string(payload);
}

namespace {

struct Meta {
  std::string spec_name;
  std::uint64_t param_count = 0;
  std::uint64_t buffer_count = 0;
  int neuron_total = 0;
  std::string method;
  int completed_cycles = 0;
  std::uint64_t journal_offset = 0;
  std::uint64_t journal_events = 0;
};

Meta read_meta(CheckpointReader& r) {
  Meta m;
  m.spec_name = r.str();
  m.param_count = r.u64();
  m.buffer_count = r.u64();
  m.neuron_total = r.i32();
  m.method = r.str();
  m.completed_cycles = r.i32();
  m.journal_offset = r.u64();
  m.journal_events = r.u64();
  return m;
}

}  // namespace

CheckpointInfo peek_checkpoint(const std::string& path) {
  const std::string payload = read_checkpoint_file(path);
  CheckpointReader r(payload);
  const Meta m = read_meta(r);
  CheckpointInfo info;
  info.spec_name = m.spec_name;
  info.method = m.method;
  info.completed_cycles = m.completed_cycles;
  info.journal_byte_offset = m.journal_offset;
  info.journal_events = m.journal_events;
  return info;
}

// ---- CheckpointManager ------------------------------------------------------

CheckpointManager::CheckpointManager(std::string base_path, int keep_last)
    : base_(std::move(base_path)), keep_last_(keep_last) {
  if (base_.empty()) {
    throw std::invalid_argument("CheckpointManager: empty base path");
  }
  if (keep_last_ < 1) {
    throw std::invalid_argument("CheckpointManager: keep_last must be >= 1");
  }
  const std::filesystem::path dir =
      std::filesystem::path(base_).parent_path();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort
  }
}

std::string CheckpointManager::generation_path(long n) const {
  return base_ + ".gen" + std::to_string(n);
}

std::vector<long> CheckpointManager::generations() const {
  namespace fs = std::filesystem;
  const fs::path base(base_);
  fs::path dir = base.parent_path();
  if (dir.empty()) dir = ".";
  const std::string prefix = base.filename().string() + ".gen";
  std::vector<long> gens;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size());
    if (!std::all_of(digits.begin(), digits.end(), [](unsigned char c) {
          return std::isdigit(c) != 0;
        })) {
      continue;
    }
    gens.push_back(std::stol(digits));
  }
  std::sort(gens.begin(), gens.end());
  return gens;
}

std::string CheckpointManager::save(std::string_view payload) {
  std::vector<long> gens = generations();
  const long next = gens.empty() ? 0 : gens.back() + 1;
  const std::string path = generation_path(next);
  write_checkpoint_file(path, payload);
  gens.push_back(next);
  // Prune oldest beyond keep_last — AFTER the new generation is durable, so
  // a crash inside save() never reduces the number of valid fallbacks.
  while (gens.size() > static_cast<std::size_t>(keep_last_)) {
    std::error_code ec;
    std::filesystem::remove(generation_path(gens.front()), ec);
    gens.erase(gens.begin());
  }
  return path;
}

std::optional<std::string> CheckpointManager::latest_valid(
    std::string* payload_out) const {
  const std::vector<long> gens = generations();
  for (auto it = gens.rbegin(); it != gens.rend(); ++it) {
    const std::string path = generation_path(*it);
    try {
      std::string payload = read_checkpoint_file(path);
      if (payload_out != nullptr) *payload_out = std::move(payload);
      return path;
    } catch (const CheckpointError&) {
      // Torn or corrupt (e.g. SIGKILL mid-write before the atomic rename,
      // or bit rot) — fall back to the previous generation.
      continue;
    }
  }
  return std::nullopt;
}

// ---- Full-state payloads ----------------------------------------------------

std::string make_checkpoint_payload(Fleet& fleet, const Strategy* strategy,
                                    const RunResult& partial) {
  CheckpointWriter w;

  // Meta. The journal position lives here so peek_checkpoint can hand it to
  // the resumed process before any fleet (or telemetry sink) exists.
  w.str(fleet.spec().name);
  w.u64(fleet.server().param_count());
  w.u64(fleet.server().global_buffers().size());
  w.i32(fleet.server().neuron_total());
  w.str(partial.method);
  w.i32(static_cast<int>(partial.rounds.size()));
  obs::JournalPosition jp;
  if (fleet.telemetry() != nullptr) {
    jp = fleet.telemetry()->journal_position();
  }
  w.u64(jp.byte_offset);
  w.u64(jp.events);

  // Registered components (e.g. churn) — saved before the client roster
  // because their load may re-add mid-run joiners to the rebuilt fleet.
  const auto& comps = fleet.checkpointables();
  w.u32(static_cast<std::uint32_t>(comps.size()));
  for (const auto& [name, comp] : comps) {
    w.str(name);
    CheckpointWriter sub;
    comp->save_state(fleet, sub);
    w.blob(sub.buffer());
  }

  // Client roster + per-client cross-round state. Replica parameters are
  // not stored: they are overwritten by the global snapshot at every cycle
  // start, so only the materialized flag (memory footprint fidelity) and
  // the genuinely cross-cycle pieces travel.
  w.u32(static_cast<std::uint32_t>(fleet.size()));
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    Client& c = fleet.client(i);
    w.i32(c.id());
    w.boolean(c.is_straggler());
    w.boolean(c.active());
    w.f64(c.volume());
    w.i32(c.cycles_completed());
    w.f32(c.config().proximal_mu);
    w.boolean(c.materialized());
    // Loader state is gated on validity: a fresh lazy client has no loader
    // yet (it is a pure function of the seed, rebuilt on first use), so
    // nothing needs to travel.
    const Client::LoaderState ls = c.loader_state();
    w.boolean(ls.valid);
    if (ls.valid) {
      w.rng(ls.rng);
      w.vec_size(ls.order);
      w.u64(static_cast<std::uint64_t>(ls.cursor));
    }
    w.vec_f32(c.optimizer().velocity());
  }

  // Virtual clock.
  w.f64(fleet.clock().now());

  // Server model.
  w.vec_f32(fleet.server().global());
  w.vec_f32(fleet.server().global_buffers());

  // Network session: per-device channel roster with config overrides, RNG
  // positions and scripted faults. The session object itself is rebuilt by
  // the resuming process; this section overlays its mutable state.
  NetworkSession* session = fleet.network();
  w.boolean(session != nullptr);
  if (session != nullptr) {
    w.boolean(session->simulated());
    net::RoundProtocol& proto = session->protocol();
    const auto& overrides = proto.overrides();
    w.u32(static_cast<std::uint32_t>(overrides.size()));
    for (const auto& [id, cfg] : overrides) {
      w.i32(id);
      w.f64(cfg.bandwidth_mbps);
      w.f64(cfg.latency_s);
      w.f64(cfg.jitter_s);
      w.f64(cfg.loss_prob);
    }
    const std::vector<int> ids = proto.device_ids();
    w.u32(static_cast<std::uint32_t>(ids.size()));
    for (int id : ids) {
      const net::SimulatedChannel& ch = proto.channel(id);
      w.i32(id);
      w.f64(ch.bandwidth_mbps());
      const net::ChannelConfig& cfg = ch.config();
      w.f64(cfg.bandwidth_mbps);
      w.f64(cfg.latency_s);
      w.f64(cfg.jitter_s);
      w.f64(cfg.loss_prob);
      w.rng(ch.rng_state());
      w.f64(ch.death_s());
      const auto& outages = ch.outages();
      w.u32(static_cast<std::uint32_t>(outages.size()));
      for (const auto& [start, end] : outages) {
        w.f64(start);
        w.f64(end);
      }
    }
  }

  // Partial RunResult.
  w.u32(static_cast<std::uint32_t>(partial.rounds.size()));
  for (const RoundRecord& rec : partial.rounds) {
    w.i32(rec.cycle);
    w.f64(rec.virtual_time);
    w.f64(rec.test_accuracy);
    w.f64(rec.mean_train_loss);
    w.f64(rec.upload_mb);
  }

  // Strategy state.
  w.boolean(strategy != nullptr);
  if (strategy != nullptr) {
    w.str(strategy->name());
    CheckpointWriter sub;
    strategy->save_state(fleet, sub);
    w.blob(sub.buffer());
  }

  return w.take();
}

RunResult restore_checkpoint_payload(Fleet& fleet, Strategy* strategy,
                                     std::string_view payload) {
  CheckpointReader r(payload);

  const Meta meta = read_meta(r);
  if (meta.spec_name != fleet.spec().name) {
    throw CheckpointError("checkpoint architecture mismatch: snapshot spec '" +
                          meta.spec_name + "' vs rebuilt fleet spec '" +
                          fleet.spec().name + "'");
  }
  if (meta.param_count != fleet.server().param_count() ||
      meta.buffer_count != fleet.server().global_buffers().size() ||
      meta.neuron_total != fleet.server().neuron_total()) {
    throw CheckpointError(
        "checkpoint architecture mismatch: snapshot has " +
        std::to_string(meta.param_count) + " params / " +
        std::to_string(meta.buffer_count) + " buffers / " +
        std::to_string(meta.neuron_total) + " neurons; the rebuilt fleet has " +
        std::to_string(fleet.server().param_count()) + " / " +
        std::to_string(fleet.server().global_buffers().size()) + " / " +
        std::to_string(fleet.server().neuron_total()));
  }

  // Components first: churn re-admits mid-run joiners here, so the roster
  // check below sees the full population.
  const auto& comps = fleet.checkpointables();
  const std::uint32_t comp_count = r.u32();
  if (comp_count != comps.size()) {
    throw CheckpointError(
        "checkpoint component count mismatch: snapshot has " +
        std::to_string(comp_count) + ", fleet registered " +
        std::to_string(comps.size()));
  }
  for (std::uint32_t i = 0; i < comp_count; ++i) {
    const std::string name = r.str();
    if (name != comps[i].first) {
      throw CheckpointError("checkpoint component mismatch at slot " +
                            std::to_string(i) + ": snapshot '" + name +
                            "' vs registered '" + comps[i].first + "'");
    }
    const std::string blob = r.blob();
    CheckpointReader sub(blob);
    comps[i].second->load_state(fleet, sub);
    sub.expect_done(("component '" + name + "'").c_str());
  }

  // Client roster + state.
  const std::uint32_t n_clients = r.u32();
  if (n_clients != fleet.size()) {
    throw CheckpointError("checkpoint roster mismatch: snapshot has " +
                          std::to_string(n_clients) +
                          " clients, the rebuilt fleet has " +
                          std::to_string(fleet.size()));
  }
  for (std::uint32_t i = 0; i < n_clients; ++i) {
    Client& c = fleet.client(i);
    const int id = r.i32();
    if (id != c.id()) {
      throw CheckpointError("checkpoint roster mismatch at index " +
                            std::to_string(i) + ": snapshot id " +
                            std::to_string(id) + " vs fleet id " +
                            std::to_string(c.id()));
    }
    c.set_straggler(r.boolean());
    c.set_active(r.boolean());
    c.set_volume(r.f64());
    c.set_cycles_completed(r.i32());
    c.set_proximal_mu(r.f32());
    const bool materialized = r.boolean();
    if (r.boolean()) {
      const util::RngState loader_rng = r.rng();
      std::vector<std::size_t> order = r.vec_size();
      const std::size_t cursor = static_cast<std::size_t>(r.u64());
      c.restore_loader_state(loader_rng, std::move(order), cursor);
    }
    c.optimizer().set_velocity(r.vec_f32());
    // Only the flag is restored: parameters are overwritten at cycle start.
    if (materialized) {
      c.model();
    } else {
      c.hibernate();
    }
  }

  // Virtual clock.
  fleet.clock().reset();
  fleet.clock().advance_to(r.f64());

  // Server model.
  fleet.server().set_global(r.vec_f32());
  fleet.server().set_global_buffers(r.vec_f32());

  // Network session.
  const bool had_session = r.boolean();
  NetworkSession* session = fleet.network();
  if (had_session && session == nullptr) {
    throw CheckpointError(
        "checkpoint has a network session but the rebuilt fleet has none "
        "(attach an identically configured NetworkSession before resume)");
  }
  if (!had_session && session != nullptr) {
    throw CheckpointError(
        "rebuilt fleet has a network session but the checkpoint has none");
  }
  if (had_session) {
    const bool was_simulated = r.boolean();
    if (was_simulated != session->simulated()) {
      throw CheckpointError(
          "checkpoint network mode mismatch (simulated vs ideal)");
    }
    net::RoundProtocol& proto = session->protocol();
    const std::uint32_t n_overrides = r.u32();
    for (std::uint32_t i = 0; i < n_overrides; ++i) {
      const int id = r.i32();
      net::ChannelConfig cfg;
      cfg.bandwidth_mbps = r.f64();
      cfg.latency_s = r.f64();
      cfg.jitter_s = r.f64();
      cfg.loss_prob = r.f64();
      proto.configure_device(id, cfg);
    }
    const std::uint32_t n_devices = r.u32();
    for (std::uint32_t i = 0; i < n_devices; ++i) {
      const int id = r.i32();
      const double resolved_bw = r.f64();
      net::ChannelConfig cfg;
      cfg.bandwidth_mbps = r.f64();
      cfg.latency_s = r.f64();
      cfg.jitter_s = r.f64();
      cfg.loss_prob = r.f64();
      const util::RngState rng = r.rng();
      const double death = r.f64();
      const std::uint32_t n_outages = r.count(2 * 8);  // start, end
      std::vector<std::pair<double, double>> outages;
      outages.reserve(n_outages);
      for (std::uint32_t k = 0; k < n_outages; ++k) {
        const double start = r.f64();
        const double end = r.f64();
        outages.emplace_back(start, end);
      }
      // Registration forks the protocol's seed rng purely by id, so a
      // device registered here gets the same base channel it had in the
      // crashed process; the snapshot then overlays the mutable state.
      if (!proto.has_device(id)) proto.add_device(id, resolved_bw);
      net::SimulatedChannel& ch = proto.channel(id);
      ch.set_config(cfg);
      ch.set_rng_state(rng);
      if (death >= 0.0) ch.set_death(death);
      ch.set_outages(std::move(outages));
    }
  }

  // Partial RunResult.
  RunResult result;
  result.method = meta.method;
  // cycle (4 B) and four f64 fields per round.
  const std::uint32_t n_rounds = r.count(4 + 4 * 8);
  result.rounds.reserve(n_rounds);
  for (std::uint32_t i = 0; i < n_rounds; ++i) {
    RoundRecord rec;
    rec.cycle = r.i32();
    rec.virtual_time = r.f64();
    rec.test_accuracy = r.f64();
    rec.mean_train_loss = r.f64();
    rec.upload_mb = r.f64();
    result.rounds.push_back(rec);
  }

  // Strategy state.
  const bool had_strategy = r.boolean();
  if (had_strategy && strategy == nullptr) {
    throw CheckpointError(
        "checkpoint carries strategy state but no strategy was supplied");
  }
  if (!had_strategy && strategy != nullptr) {
    throw CheckpointError(
        "a strategy was supplied but the checkpoint carries no strategy "
        "state");
  }
  if (had_strategy) {
    const std::string name = r.str();
    if (name != strategy->name()) {
      throw CheckpointError("checkpoint strategy mismatch: snapshot '" +
                            name + "' vs supplied '" + strategy->name() +
                            "'");
    }
    const std::string blob = r.blob();
    CheckpointReader sub(blob);
    strategy->load_state(fleet, sub);
    sub.expect_done("strategy state");
  }

  r.expect_done("checkpoint payload");
  return result;
}

// ---- Fleet glue -------------------------------------------------------------

void Fleet::register_checkpointable(std::string name,
                                    Checkpointable* component) {
  if (component == nullptr) {
    throw std::invalid_argument("register_checkpointable: null component");
  }
  checkpointables_.emplace_back(std::move(name), component);
}

void Fleet::save_checkpoint(const std::string& path, const Strategy* strategy,
                            const RunResult& result) {
  write_checkpoint_file(path, make_checkpoint_payload(*this, strategy,
                                                      result));
}

RunResult Fleet::resume(const std::string& path, Strategy* strategy) {
  return restore_checkpoint_payload(*this, strategy,
                                    read_checkpoint_file(path));
}

// ---- Resumable run driver ---------------------------------------------------

RunResult run_resumable(Fleet& fleet, Strategy& strategy, int cycles,
                        const ResumableOptions& opts) {
  if (opts.checkpoint_every < 1) {
    throw std::invalid_argument("run_resumable: checkpoint_every must be >= 1");
  }
  CheckpointManager manager(opts.base_path, opts.keep_last);

  RunResult result;
  int done = 0;
  std::string payload;
  if (manager.latest_valid(&payload).has_value()) {
    result = restore_checkpoint_payload(fleet, &strategy, payload);
    done = static_cast<int>(result.rounds.size());
  } else {
    result.method = strategy.name();
  }

  while (done < cycles) {
    const int chunk = std::min(opts.checkpoint_every, cycles - done);
    strategy.run_range(fleet, result, done, done + chunk);
    const int recorded = static_cast<int>(result.rounds.size());
    manager.save(make_checkpoint_payload(fleet, &strategy, result));
    // An event-driven strategy may exhaust legitimately before `cycles`
    // (e.g. every device died); no further progress is possible.
    if (recorded == done) break;
    done = recorded;
  }
  return result;
}

}  // namespace helios::fl
