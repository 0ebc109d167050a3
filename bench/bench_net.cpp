// Network-simulation benchmark: what do faulty channels cost each strategy?
//
// Two tables:
//
//  * strategies: for every strategy, one ideal-channel baseline run plus
//    one simulated run per loss rate (0 / 1 / 5%), all on identical
//    fleets. Reported per run: final accuracy, bytes actually on the wire
//    (retransmits included), lost frames, dropped updates and host
//    wall-clock.
//
//  * the wire-codec sweep: Helios and Syn. FL on a sampled mobile-longtail
//    population (C = 0.1) with the payload codec at fp32 / fp16 / int8
//    per-neuron (error feedback on) across the same loss rates. Each
//    quantized run reports its measured wire-byte reduction and
//    final-accuracy delta against the fp32 run at the same loss rate. The
//    int8pn floor (>= 4x, at most 0.5 points below fp32) is a tier-1 test
//    on this configuration: `Int8pnFloorTest` in tests/codec_test.cpp.
#include <algorithm>
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "codec/codec.h"
#include "core/straggler_id.h"
#include "core/target.h"
#include "fl/transport.h"
#include "obs/telemetry.h"
#include "sim/population.h"
#include "sim/sampler.h"

namespace {

using namespace helios;

struct RunStats {
  double accuracy = 0.0;
  double wall_seconds = 0.0;
  double wire_mb = 0.0;
  double frames_lost = 0.0;
  double drops = 0.0;
};

/// Sums a per-device labeled counter over the fleet's device ids.
double sum_device_counter(obs::TelemetrySink& tel, const char* name,
                          int devices) {
  double total = 0.0;
  for (int d = 0; d < devices; ++d) {
    total += tel.metrics()
                 .counter(name, {{"device", std::to_string(d)}})
                 .value();
  }
  return total;
}

RunStats run_once(const bench::TaskSpec& task, const bench::FleetSetup& setup,
                  const std::string& method, const net::NetworkOptions& opts) {
  fl::Fleet fleet = bench::build_fleet(task, setup);
  obs::TelemetryConfig tcfg;
  tcfg.tracing = false;
  obs::TelemetrySink telemetry(tcfg);
  fleet.set_telemetry(&telemetry);
  fl::NetworkSession session(fleet, opts);

  auto strategy = bench::make_strategy(method);
  const auto t0 = std::chrono::steady_clock::now();
  const fl::RunResult result = strategy->run(fleet, task.cycles);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;

  RunStats s;
  s.accuracy = result.final_accuracy();
  s.wall_seconds = wall.count();
  s.wire_mb = sum_device_counter(telemetry, "helios.net.bytes_on_wire_total",
                                 setup.devices) /
              1e6;
  s.frames_lost = sum_device_counter(
      telemetry, "helios.net.frames_lost_total", setup.devices);
  s.drops =
      sum_device_counter(telemetry, "helios.net.drops_total", setup.devices);
  return s;
}

// --- Quantization sweep -----------------------------------------------

struct QuantStats {
  double accuracy = 0.0;
  double wire_mb = 0.0;  // everything on the wire, retransmits included
};

/// One run of the codec sweep: a sampled mobile-longtail fleet (the
/// acceptance population) through a simulated channel with the given
/// payload codec. Error feedback stays on — it is part of the quantized
/// path being measured, and a no-op at fp32.
QuantStats run_quant_once(const std::string& method, codec::CodecId codec,
                          double loss, int devices, int cycles) {
  const sim::PopulationGenerator pop(sim::mobile_longtail(devices));
  fl::Fleet fleet = sim::build_fleet(pop);
  const core::StragglerReport report = core::StragglerIdentifier::time_based(
      fleet, std::max(1, devices / 4));
  core::StragglerIdentifier::apply(fleet, report);
  core::TargetDeterminer::assign_profiled(fleet, report);

  sim::CohortSampler::Options sopts;
  sopts.fraction = 0.1;
  sopts.seed = 29;
  sim::CohortSampler sampler(sopts);
  sampler.attach(&fleet);
  fleet.set_sampler(&sampler);

  obs::TelemetryConfig tcfg;
  tcfg.tracing = false;
  obs::TelemetrySink telemetry(tcfg);
  fleet.set_telemetry(&telemetry);

  net::NetworkOptions opts;
  opts.mode = net::NetMode::kSimulated;
  opts.channel.loss_prob = loss;
  opts.channel.latency_s = 0.005;
  opts.channel.jitter_s = 0.002;
  opts.deadline_factor = 2.0;
  opts.seed = 97;
  opts.payload_codec = codec;
  opts.error_feedback = true;
  fl::NetworkSession session(fleet, opts);

  auto strategy = bench::make_strategy(method);
  const fl::RunResult result = strategy->run(fleet, cycles);

  QuantStats s;
  s.accuracy = result.final_accuracy();
  s.wire_mb = sum_device_counter(telemetry, "helios.net.bytes_on_wire_total",
                                 devices) /
              1e6;
  fleet.set_sampler(nullptr);
  return s;
}

}  // namespace

int main() {
  const bench::Scale scale = bench::scale_from_env();
  const bench::TaskSpec task = bench::lenet_task(scale);
  const bench::FleetSetup setup{4, 2, false, 7};
  const std::vector<std::string> methods = {"Syn. FL", "Asyn. FL", "AFO",
                                            "Helios"};
  const std::vector<double> loss_rates = {0.0, 0.01, 0.05};

  util::Table table({"method", "channel", "final acc (%)", "wire (MB)",
                     "lost", "drops", "wall (s)"});
  for (const std::string& method : methods) {
    // Ideal baseline: frames are encoded and counted but delivery is
    // perfect and timing stays analytic.
    const RunStats ideal = run_once(task, setup, method, net::NetworkOptions{});
    table.add_row({method, "ideal",
                   util::Table::num(ideal.accuracy * 100.0, 2),
                   util::Table::num(ideal.wire_mb, 3), "0", "0",
                   util::Table::num(ideal.wall_seconds, 2)});

    for (const double loss : loss_rates) {
      net::NetworkOptions opts;
      opts.mode = net::NetMode::kSimulated;
      opts.channel.loss_prob = loss;
      opts.channel.latency_s = 0.005;
      opts.channel.jitter_s = 0.002;
      opts.deadline_factor = 2.0;
      // The default protocol seed's four forked streams happen to draw no
      // loss event in a short run; this one realizes ~p per rate at both
      // quick and default scale, so the retransmit path shows up in the
      // report.
      opts.seed = 97;
      const RunStats lossy = run_once(task, setup, method, opts);
      table.add_row(
          {method, "loss " + util::Table::num(loss * 100.0, 0) + "%",
           util::Table::num(lossy.accuracy * 100.0, 2),
           util::Table::num(lossy.wire_mb, 3),
           util::Table::num(lossy.frames_lost, 0),
           util::Table::num(lossy.drops, 0),
           util::Table::num(lossy.wall_seconds, 2)});
    }
  }

  // Quantization sweep on the acceptance population: mobile-longtail at
  // C = 0.1. The fp32 column is the per-loss baseline the quantized runs
  // are judged against — run first so the ratios can be computed inline.
  const int kQuantDevices = 40;
  const int kQuantCycles = 40;
  const std::vector<std::string> quant_methods = {"Syn. FL", "Helios"};
  const std::vector<codec::CodecId> codecs = {codec::CodecId::kFp32,
                                              codec::CodecId::kFp16,
                                              codec::CodecId::kInt8PerNeuron};
  util::Table quant_table({"method", "codec", "loss", "final acc (%)",
                           "wire (MB)", "reduction vs fp32",
                           "acc delta vs fp32"});
  for (const std::string& method : quant_methods) {
    std::vector<QuantStats> fp32_runs;  // per loss rate, codec order fixed
    for (const codec::CodecId id : codecs) {
      for (std::size_t l = 0; l < loss_rates.size(); ++l) {
        const QuantStats s =
            run_quant_once(method, id, loss_rates[l], kQuantDevices,
                           kQuantCycles);
        if (id == codec::CodecId::kFp32) fp32_runs.push_back(s);
        std::string reduction = "--";
        std::string delta = "--";
        if (id != codec::CodecId::kFp32) {
          const QuantStats& base = fp32_runs[l];
          const double r = s.wire_mb > 0.0 ? base.wire_mb / s.wire_mb : 0.0;
          const double d = s.accuracy - base.accuracy;
          reduction = util::Table::num(r, 2) + "x";
          delta = util::Table::num(d * 100.0, 2) + "%";
        }
        quant_table.add_row(
            {method, codec::codec_name(id),
             util::Table::num(loss_rates[l] * 100.0, 0) + "%",
             util::Table::num(s.accuracy * 100.0, 2),
             util::Table::num(s.wire_mb, 3), reduction, delta});
      }
    }
  }

  util::print_banner(std::cout,
                     "Network simulation: wire bytes, faults and accuracy "
                     "across loss rates (" + task.name + ")");
  table.print(std::cout);
  util::print_banner(std::cout,
                     "Wire codec sweep: mobile-longtail (40 devices, "
                     "C = 0.1), error feedback on");
  quant_table.print(std::cout);
  return 0;
}
