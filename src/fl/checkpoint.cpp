#include "fl/checkpoint.h"

#include <algorithm>
#include <cctype>
#include <cmath>
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

template <typename T>
void append(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
T load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint32_t payload_crc(std::string_view payload) {
  return net::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()));
}

}  // namespace

// ---- File framing -----------------------------------------------------------

void write_checkpoint_file(const std::string& path, std::string_view payload) {
  std::string frame;
  frame.reserve(kHeaderBytes + payload.size());
  frame.append(kMagic, sizeof kMagic);
  append(frame, kCheckpointVersion);
  append(frame, static_cast<std::uint64_t>(payload.size()));
  append(frame, payload_crc(payload));
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
  const auto version = load<std::uint32_t>(data.data() + 8);
  if (version != kCheckpointVersion) {
    throw CheckpointError("checkpoint schema version " +
                          std::to_string(version) + " unsupported (expected " +
                          std::to_string(kCheckpointVersion) + "): " + path);
  }
  const auto size = load<std::uint64_t>(data.data() + 12);
  if (data.size() < kHeaderBytes + size) {
    throw CheckpointError("checkpoint payload truncated: " + path);
  }
  if (data.size() > kHeaderBytes + size) {
    throw CheckpointError("checkpoint has trailing bytes: " + path);
  }
  const auto want = load<std::uint32_t>(data.data() + 20);
  const std::string_view payload(data.data() + kHeaderBytes,
                                 static_cast<std::size_t>(size));
  if (payload_crc(payload) != want) {
    throw CheckpointError("checkpoint CRC mismatch (corrupt file): " + path);
  }
  return std::string(payload);
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

namespace {

// Smallest encoding of a client: id, three flags and the loader gate, the
// volume, the cycle counter, mu and the velocity's length.
constexpr std::size_t kClientBytes = 4 + 4 * 1 + 8 + 4 + 4 + 4;

/// The payload, one section after another, in either direction: meta,
/// registered components, client roster, clock, server model, network
/// session, the partial RunResult and the strategy. Without a fleet
/// (peek_checkpoint) the walk stops after the meta section.
void walk(CheckpointArchive& ar, CheckpointInfo& meta, Fleet* fleet,
          Strategy* strategy, RunResult& result) {
  // Meta. The journal position lives here so peek_checkpoint can hand it to
  // the resumed process before any fleet (or telemetry sink) exists.
  std::uint64_t params = 0;
  std::uint64_t buffers = 0;
  int neurons = 0;
  if (!ar.loading()) {
    meta.spec_name = fleet->spec().name;
    params = fleet->server().param_count();
    buffers = fleet->server().global_buffers().size();
    neurons = fleet->server().neuron_total();
    meta.method = result.method;
    meta.completed_cycles = static_cast<int>(result.rounds.size());
    if (fleet->telemetry() != nullptr) {
      const obs::JournalPosition jp = fleet->telemetry()->journal_position();
      meta.journal_byte_offset = jp.byte_offset;
      meta.journal_events = jp.events;
    }
  }
  ar.io(meta.spec_name);
  ar.io(params);
  ar.io(buffers);
  ar.io(neurons);
  ar.io(meta.method);
  ar.io(meta.completed_cycles);
  ar.io(meta.journal_byte_offset);
  ar.io(meta.journal_events);
  if (fleet == nullptr) return;
  Server& server = fleet->server();
  ar.expect(meta.spec_name == fleet->spec().name, [&] {
    return "checkpoint architecture mismatch: snapshot spec '" +
           meta.spec_name + "' vs rebuilt fleet spec '" + fleet->spec().name +
           "'";
  });
  ar.expect(params == server.param_count() &&
                buffers == server.global_buffers().size() &&
                neurons == server.neuron_total(),
            [&] {
              return "checkpoint architecture mismatch: snapshot has " +
                     std::to_string(params) + " params / " +
                     std::to_string(buffers) + " buffers / " +
                     std::to_string(neurons) +
                     " neurons; the rebuilt fleet has " +
                     std::to_string(server.param_count()) + " / " +
                     std::to_string(server.global_buffers().size()) + " / " +
                     std::to_string(server.neuron_total());
            });
  result.method = meta.method;

  // Registered components (e.g. churn) before the client roster: churn
  // re-admits mid-run joiners on restore, so the roster check below sees
  // the full population.
  const auto& comps = fleet->checkpointables();
  const std::uint32_t n_comps = ar.count(comps.size(), 4 + 8);
  ar.expect(n_comps == comps.size(), [&] {
    return "checkpoint component count mismatch: snapshot has " +
           std::to_string(n_comps) + ", fleet registered " +
           std::to_string(comps.size());
  });
  for (std::uint32_t i = 0; i < n_comps; ++i) {
    std::string name = comps[i].first;
    ar.io(name);
    ar.expect(name == comps[i].first, [&] {
      return "checkpoint component mismatch at slot " + std::to_string(i) +
             ": snapshot '" + name + "' vs registered '" + comps[i].first +
             "'";
    });
    ar.section("component '" + name + "'", [&](CheckpointArchive& sub) {
      comps[i].second->io(*fleet, sub);
    });
  }

  // Client roster and each client's cross-round state.
  const std::uint32_t n_clients = ar.count(fleet->size(), kClientBytes);
  ar.expect(n_clients == fleet->size(), [&] {
    return "checkpoint roster mismatch: snapshot has " +
           std::to_string(n_clients) + " clients, the rebuilt fleet has " +
           std::to_string(fleet->size());
  });
  for (std::uint32_t i = 0; i < n_clients; ++i) {
    Client& c = fleet->client(i);
    int id = c.id();
    ar.io(id);
    ar.expect(id == c.id(), [&] {
      return "checkpoint roster mismatch at index " + std::to_string(i) +
             ": snapshot id " + std::to_string(id) + " vs fleet id " +
             std::to_string(c.id());
    });
    c.io(ar);
  }

  // Virtual clock.
  ar.io(fleet->clock().now(), [&](double now) {
    ar.expect(std::isfinite(now) && now >= 0.0,
              "checkpoint clock is not a finite, non-negative time");
    fleet->clock().reset();
    fleet->clock().advance_to(now);
  });

  // Server model.
  ar.io(server.global(), [&](std::vector<float> global) {
    ar.expect(global.size() == server.param_count(),
              "checkpoint global parameters do not match the model");
    server.set_global(std::move(global));
  });
  ar.io(server.global_buffers(), [&](std::vector<float> global_buffers) {
    ar.expect(global_buffers.size() == server.global_buffers().size(),
              "checkpoint global buffers do not match the model");
    server.set_global_buffers(std::move(global_buffers));
  });

  // Network session: the protocol's per-device config overrides and its
  // channel roster with each channel's full state (RNG position, scripted
  // faults). The session object itself is rebuilt by the resuming process;
  // this section restores its mutable state.
  NetworkSession* session = fleet->network();
  bool had_session = session != nullptr;
  ar.io(had_session);
  ar.expect(!had_session || session != nullptr,
            "checkpoint has a network session but the rebuilt fleet has none "
            "(attach an identically configured NetworkSession before resume)");
  ar.expect(had_session || session == nullptr,
            "rebuilt fleet has a network session but the checkpoint has none");
  if (session != nullptr) {
    bool simulated = session->simulated();
    ar.io(simulated);
    ar.expect(simulated == session->simulated(),
              "checkpoint network mode mismatch (simulated vs ideal)");
    session->protocol().io(ar);
  }

  // Partial RunResult: the cycle and four f64 fields per round.
  result.rounds.resize(ar.count(result.rounds.size(), 4 + 4 * 8));
  ar.expect(result.rounds.size() ==
                static_cast<std::size_t>(meta.completed_cycles),
            "checkpoint round count does not match its meta section");
  for (RoundRecord& rec : result.rounds) {
    ar.io(rec.cycle);
    ar.io(rec.virtual_time);
    ar.io(rec.test_accuracy);
    ar.io(rec.mean_train_loss);
    ar.io(rec.upload_mb);
  }

  // Strategy state.
  bool had_strategy = strategy != nullptr;
  ar.io(had_strategy);
  ar.expect(!had_strategy || strategy != nullptr,
            "checkpoint carries strategy state but no strategy was supplied");
  ar.expect(had_strategy || strategy == nullptr,
            "a strategy was supplied but the checkpoint carries no strategy "
            "state");
  if (strategy != nullptr) {
    std::string name = strategy->name();
    ar.io(name);
    ar.expect(name == strategy->name(), [&] {
      return "checkpoint strategy mismatch: snapshot '" + name +
             "' vs supplied '" + strategy->name() + "'";
    });
    ar.section("strategy state", [&](CheckpointArchive& sub) {
      strategy->io(*fleet, sub);
    });
    const int progress = strategy->completed_rounds();
    ar.expect(progress < 0 ||
                  static_cast<std::size_t>(progress) == result.rounds.size(),
              "checkpoint strategy progress does not match its rounds");
  }
  ar.expect_done("checkpoint payload");
}

}  // namespace

CheckpointInfo peek_checkpoint(const std::string& path) {
  const std::string payload = read_checkpoint_file(path);
  CheckpointArchive ar(payload);
  CheckpointInfo info;
  RunResult none;
  walk(ar, info, nullptr, nullptr, none);
  return info;
}

std::string make_checkpoint_payload(Fleet& fleet, const Strategy* strategy,
                                    const RunResult& partial) {
  CheckpointArchive ar;
  CheckpointInfo meta;
  RunResult result = partial;
  // A writing archive only reads the strategy's state.
  walk(ar, meta, &fleet, const_cast<Strategy*>(strategy), result);
  return ar.take();
}

RunResult restore_checkpoint_payload(Fleet& fleet, Strategy* strategy,
                                     std::string_view payload) {
  CheckpointArchive ar(payload);
  CheckpointInfo meta;
  RunResult result;
  walk(ar, meta, &fleet, strategy, result);
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
