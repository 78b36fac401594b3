// Throughput driver for the sharded steady-state allocator (DESIGN.md
// §12): runs the same admission-controlled, warm-started simulation
// horizon twice — once with the plain NSGA-III+Tabu allocator, once with
// the ShardedAllocator — and reports windows/sec, cumulative VM
// arrivals, front quality and the rebalance telemetry, emitting a
// machine-readable BENCH_sharded_throughput.json.
//
// Tiers (IAAS_BENCH_SIZES selects; IAAS_BENCH_FAST shrinks):
//   fast        64 servers,  40 windows x  30 arrivals   (smoke)
//   default    256 servers, 200 windows x 120 arrivals   (CI nightly)
//   throughput 512 servers, 2000 windows x 525 arrivals  (>= 1M VMs)
//
// Gates (nightly):
//   IAAS_BENCH_MIN_SHARD_SPEEDUP   floor on sharded/unsharded windows
//                                  per second; skipped below 8 hardware
//                                  threads (report, don't fail).
//   front quality                  sharded mean aggregate must stay
//                                  within the rebalance tolerance of the
//                                  unsharded run — hard-fails otherwise
//                                  on any hardware.
//
// The sharded fingerprint is printed so the nightly job can diff a
// telemetry-ON build against a telemetry-OFF build: the digest excludes
// wall clocks and counter columns, so the two must match bit-for-bit.
//
// Each mode also streams its full window trace incrementally through
// the per-window sink (io/trace_stream + io/trace_binary): the horizon
// is never buffered as a Json tree, and the trace-IO gates below verify
// the peak emitter buffer stays O(one window), the binary file is >= 5x
// smaller than the pretty JSON, and the binary trace reloads to the
// exact mode fingerprint.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.h"
#include "algo/sharded_allocator.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "io/emit.h"
#include "io/trace_binary.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"
#include "workload/scenario_config.h"

namespace {

struct Tier {
  const char* name = "default";
  std::uint32_t servers = 256;
  std::uint32_t datacenters = 8;
  std::size_t windows = 200;
  std::size_t arrivals = 120;  // mean per window (schedule alternates)
};

struct ModeResult {
  std::string algorithm;
  double seconds = 0.0;
  double windows_per_sec = 0.0;
  std::size_t cumulative_arrivals = 0;
  std::size_t admitted = 0;
  std::size_t deferred = 0;
  std::size_t dropped = 0;
  std::size_t rejected = 0;  // permanent + terminal-window rejections
  double mean_aggregate = 0.0;
  std::uint64_t fingerprint = 0;
  iaas::ShardRunStats shard_totals;  // zero for the unsharded mode
  // Streaming trace-IO stats (per-window sink -> JSON + binary files).
  std::size_t trace_json_bytes = 0;
  std::size_t trace_binary_bytes = 0;
  std::size_t trace_peak_buffer = 0;  // JSON writer high-water mark
  std::size_t trace_windows = 0;      // fewest windows either writer wrote
  std::string trace_binary_path;
};

iaas::SimConfig make_sim_config(const Tier& tier) {
  iaas::SimConfig sim;
  sim.windows = tier.windows;
  // Deterministic bursty schedule around the mean: the heavy window
  // overflows the admission budget, the light one drains the queue, so
  // the FIFO admission path is exercised every other window while the
  // cumulative arrival count stays exact (windows * arrivals).
  sim.arrival_schedule = {tier.arrivals + tier.arrivals / 2,
                          tier.arrivals - tier.arrivals / 2};
  sim.max_admissions_per_window = tier.arrivals + tier.arrivals / 4;
  sim.admission_queue_limit = tier.arrivals * 8;
  sim.departure_probability = 0.45;  // high churn keeps the horizon steady
  sim.retry.max_attempts = 2;
  sim.retry.backoff_base_windows = 1;
  sim.warm_start_front = true;  // per-shard persistence across windows
  sim.scenario = iaas::ScenarioConfig::paper_scale(tier.servers,
                                                   tier.datacenters);
  sim.scenario.vms = 0;  // the simulator generates arrivals itself
  return sim;
}

iaas::SuiteOptions lean_suite() {
  iaas::SuiteOptions suite;  // Table III defaults...
  // ...trimmed to steady-state weight: the warm start carries the
  // incumbent, so a short, cheap search per window is the whole point of
  // the throughput driver.
  suite.ea.nsga.population_size = 24;
  suite.ea.nsga.max_evaluations = 960;
  suite.ea.nsga.reference_divisions = 4;
  suite.ea.nsga.threads = 0;  // process-shared pool (fair vs sharded)
  return suite;
}

ModeResult run_mode(const Tier& tier, std::unique_ptr<iaas::Allocator> alloc,
                    std::uint64_t seed, const std::string& trace_base) {
  ModeResult mode;
  mode.algorithm = alloc->name();
  iaas::CloudSimulator sim(make_sim_config(tier), std::move(alloc));
  // Stream the trace while the horizon runs: each completed window is
  // emitted and flushed immediately, so trace memory stays O(one
  // window) no matter how long the run is.
  iaas::SimTraceWriter json_writer(trace_base + ".json");
  iaas::BinaryTraceWriter binary_writer(trace_base + ".trc");
  sim.set_window_sink([&](const iaas::WindowMetrics& row) {
    json_writer.append(row);
    binary_writer.append(row);
  });
  iaas::Stopwatch timer;
  const std::vector<iaas::WindowMetrics> rows = sim.run(seed);
  json_writer.finish();
  binary_writer.finish();
  mode.seconds = timer.elapsed_seconds();
  mode.trace_json_bytes = json_writer.bytes_written();
  mode.trace_binary_bytes = binary_writer.bytes_written();
  mode.trace_peak_buffer = json_writer.peak_buffer_bytes();
  mode.trace_windows = std::min(json_writer.windows_written(),
                                binary_writer.windows_written());
  mode.trace_binary_path = trace_base + ".trc";
  mode.windows_per_sec =
      static_cast<double>(rows.size()) / std::max(mode.seconds, 1e-9);
  mode.fingerprint = iaas::deterministic_fingerprint(rows);
  double aggregate = 0.0;
  for (const iaas::WindowMetrics& row : rows) {
    mode.cumulative_arrivals += row.arrived;
    mode.admitted += row.admitted;
    mode.deferred += row.admission_deferred;
    mode.dropped += row.admission_dropped;
    mode.rejected += row.permanently_rejected;
    aggregate += row.objectives.aggregate();
    mode.shard_totals.shard_count =
        std::max(mode.shard_totals.shard_count, row.shard.shard_count);
    mode.shard_totals.pre_rejections += row.shard.pre_rejections;
    mode.shard_totals.rebalance_placements += row.shard.rebalance_placements;
    mode.shard_totals.migrations += row.shard.migrations;
    mode.shard_totals.max_shard_vms =
        std::max(mode.shard_totals.max_shard_vms, row.shard.max_shard_vms);
  }
  if (!rows.empty()) {
    mode.rejected += rows.back().rejected;  // still unplaced at the end
    mode.mean_aggregate = aggregate / static_cast<double>(rows.size());
  }
  return mode;
}

}  // namespace

int main() {
  using namespace iaas;
  using iaas::bench::csv_dir;

  std::printf("=== Sharded steady-state throughput driver ===\n");

  Tier tier;
  if (std::getenv("IAAS_BENCH_FAST") != nullptr) {
    tier = {"fast", 64, 2, 40, 30};
  }
  if (const char* sizes = std::getenv("IAAS_BENCH_SIZES")) {
    if (std::strcmp(sizes, "throughput") == 0) {
      // The >= 1M cumulative-VM acceptance run: 2000 windows x 525
      // arrivals (deterministic schedule) = 1.05M requests.
      tier = {"throughput", 512, 8, 2000, 525};
    }
  }
  const std::uint64_t seed = 20170529;
  const SuiteOptions suite = lean_suite();

  std::printf("tier %s: %u servers / %u DCs, %zu windows, %zu mean "
              "arrivals/window (%zu cumulative)\n",
              tier.name, tier.servers, tier.datacenters, tier.windows,
              tier.arrivals, tier.windows * tier.arrivals);

  ModeResult unsharded =
      run_mode(tier, make_allocator(AlgorithmId::kNsga3Tabu, suite), seed,
               csv_dir() + "/trace_sharded_unsharded");

  ShardedAllocatorOptions sharded_options;
  sharded_options.shard_count = 0;  // one shard per datacenter
  sharded_options.suite = suite;
  ModeResult sharded =
      run_mode(tier, std::make_unique<ShardedAllocator>(sharded_options),
               seed, csv_dir() + "/trace_sharded_sharded");

  const double speedup =
      sharded.windows_per_sec / std::max(unsharded.windows_per_sec, 1e-9);
  // Rebalance tolerance: the sharded search optimises each slice locally
  // and recovers boundary losers greedily, so its front may trail the
  // global search by a bounded margin.
  const double front_tolerance = 0.15;
  const double quality_ratio =
      sharded.mean_aggregate / std::max(unsharded.mean_aggregate, 1e-9);

  TextTable table({"mode", "windows/s", "seconds", "arrivals", "admitted",
                   "deferred", "dropped", "rejected", "mean aggregate"});
  for (const ModeResult* mode : {&unsharded, &sharded}) {
    table.add_row({mode->algorithm, TextTable::num(mode->windows_per_sec, 2),
                   TextTable::num(mode->seconds, 2),
                   std::to_string(mode->cumulative_arrivals),
                   std::to_string(mode->admitted),
                   std::to_string(mode->deferred),
                   std::to_string(mode->dropped),
                   std::to_string(mode->rejected),
                   TextTable::num(mode->mean_aggregate, 2)});
  }
  table.print();
  std::printf("\nsharded speed-up: %.2fx   front-quality ratio: %.4f "
              "(tolerance %.2f)\n",
              speedup, quality_ratio, 1.0 + front_tolerance);
  std::printf("shards %zu  pre-rejections %zu  rebalance placements %zu  "
              "migrations %zu  max shard VMs %zu\n",
              sharded.shard_totals.shard_count,
              sharded.shard_totals.pre_rejections,
              sharded.shard_totals.rebalance_placements,
              sharded.shard_totals.migrations,
              sharded.shard_totals.max_shard_vms);
  // The nightly job diffs these digests between telemetry-ON and
  // telemetry-OFF builds (and the sharded one across thread counts).
  std::printf("fingerprint unsharded %016llx sharded %016llx\n",
              static_cast<unsigned long long>(unsharded.fingerprint),
              static_cast<unsigned long long>(sharded.fingerprint));

  // --- trace-IO gates (unconditional: correctness, not perf) ----------
  bool trace_ok = true;
  for (const ModeResult* mode : {&unsharded, &sharded}) {
    const double per_window = static_cast<double>(mode->trace_json_bytes) /
                              static_cast<double>(tier.windows);
    std::printf("trace [%s]: json %zu B, binary %zu B (%.2fx), peak "
                "buffer %zu B (%.0f B/window)\n",
                mode->algorithm.c_str(), mode->trace_json_bytes,
                mode->trace_binary_bytes,
                static_cast<double>(mode->trace_json_bytes) /
                    std::max<double>(mode->trace_binary_bytes, 1.0),
                mode->trace_peak_buffer, per_window);
    if (mode->trace_binary_bytes * 5 > mode->trace_json_bytes) {
      std::fprintf(stderr,
                   "FAIL: [%s] binary trace is not >= 5x smaller than "
                   "the pretty JSON\n",
                   mode->algorithm.c_str());
      trace_ok = false;
    }
    if (tier.windows >= 8 && static_cast<double>(mode->trace_peak_buffer) >
                                 4.0 * per_window + 4096.0) {
      std::fprintf(stderr,
                   "FAIL: [%s] streaming peak buffer %zu B is not O(one "
                   "window)\n",
                   mode->algorithm.c_str(), mode->trace_peak_buffer);
      trace_ok = false;
    }
    const std::uint64_t reloaded = deterministic_fingerprint(
        read_binary_sim_trace(mode->trace_binary_path));
    if (reloaded != mode->fingerprint) {
      std::fprintf(stderr,
                   "FAIL: [%s] binary trace reload changed the "
                   "fingerprint\n",
                   mode->algorithm.c_str());
      trace_ok = false;
    }
    // Both writers (json + binary) saw every window.
    if (mode->trace_windows != tier.windows) {
      std::fprintf(stderr,
                   "FAIL: [%s] a trace writer streamed %zu of %zu windows\n",
                   mode->algorithm.c_str(), mode->trace_windows,
                   tier.windows);
      trace_ok = false;
    }
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  const std::string json_path = csv_dir() + "/BENCH_sharded_throughput.json";
  {
    std::string out;
    JsonEmitter e(out, 2);
    e.begin_object();
    e.key("bench");
    e.value("sharded_throughput");
    e.key("tier");
    e.value(tier.name);
    e.key("servers");
    e.value(static_cast<std::uint64_t>(tier.servers));
    e.key("datacenters");
    e.value(static_cast<std::uint64_t>(tier.datacenters));
    e.key("windows");
    e.value(static_cast<std::uint64_t>(tier.windows));
    e.key("hardware_threads");
    e.value(static_cast<std::uint64_t>(hardware));
    e.key("speedup");
    e.value(speedup);
    e.key("front_quality_ratio");
    e.value(quality_ratio);
    e.key("front_quality_tolerance");
    e.value(front_tolerance);
    e.key("modes");
    e.begin_array();
    for (const ModeResult* mode : {&unsharded, &sharded}) {
      char digest[17];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(mode->fingerprint));
      e.begin_object();
      e.key("algorithm");
      e.value(mode->algorithm);
      e.key("windows_per_sec");
      e.value(mode->windows_per_sec);
      e.key("seconds");
      e.value(mode->seconds);
      e.key("cumulative_arrivals");
      e.value(static_cast<std::uint64_t>(mode->cumulative_arrivals));
      e.key("admitted");
      e.value(static_cast<std::uint64_t>(mode->admitted));
      e.key("deferred");
      e.value(static_cast<std::uint64_t>(mode->deferred));
      e.key("dropped");
      e.value(static_cast<std::uint64_t>(mode->dropped));
      e.key("rejected");
      e.value(static_cast<std::uint64_t>(mode->rejected));
      e.key("mean_aggregate");
      e.value(mode->mean_aggregate);
      e.key("fingerprint");
      e.value(digest);
      e.key("shard_count");
      e.value(static_cast<std::uint64_t>(mode->shard_totals.shard_count));
      e.key("pre_rejections");
      e.value(
          static_cast<std::uint64_t>(mode->shard_totals.pre_rejections));
      e.key("rebalance_placements");
      e.value(static_cast<std::uint64_t>(
          mode->shard_totals.rebalance_placements));
      e.key("migrations");
      e.value(static_cast<std::uint64_t>(mode->shard_totals.migrations));
      e.key("trace_json_bytes");
      e.value(static_cast<std::uint64_t>(mode->trace_json_bytes));
      e.key("trace_binary_bytes");
      e.value(static_cast<std::uint64_t>(mode->trace_binary_bytes));
      e.key("trace_peak_buffer_bytes");
      e.value(static_cast<std::uint64_t>(mode->trace_peak_buffer));
      e.end_object();
    }
    e.end_array();
    e.end_object();
    out += '\n';
    JsonFileSink sink(json_path);
    sink.write(out);
    sink.close();
    std::printf("\nWrote %s\n", json_path.c_str());
  }

  if (!trace_ok) {
    return 1;
  }

  // Front-quality gate: unconditional — a sharded run that loses more
  // than the rebalance tolerance is a correctness regression of the
  // rebalance pass, not a perf artefact of the host.
  if (quality_ratio > 1.0 + front_tolerance) {
    std::fprintf(stderr,
                 "FAIL: sharded front quality ratio %.4f exceeds the "
                 "1 + %.2f rebalance tolerance\n",
                 quality_ratio, front_tolerance);
    return 1;
  }

  // Throughput gate (nightly): only meaningful with real parallel
  // headroom — report-and-skip below 8 hardware threads.
  if (const char* floor_env = std::getenv("IAAS_BENCH_MIN_SHARD_SPEEDUP")) {
    const double floor = std::strtod(floor_env, nullptr);
    if (hardware < 8) {
      std::printf("shard speedup gate skipped: %u hardware threads < 8 "
                  "(speedup %.2f not meaningful here)\n",
                  hardware, speedup);
    } else if (speedup < floor) {
      std::fprintf(stderr,
                   "FAIL: sharded speedup %.2f is below the %.2f floor\n",
                   speedup, floor);
      return 1;
    } else {
      std::printf("shard speedup gate passed: %.2f >= %.2f\n", speedup,
                  floor);
    }
  }
  return 0;
}
