// Trace-IO gate: emission time and trace size of the two write paths
// (DESIGN.md §13) on a fault-injection horizon with the EA's
// per-generation allocator trace enabled — the richest WindowMetrics
// shape (fault events, admission block, nested run traces).
//
//   streaming   SimTraceWriter: per-window emit + flush, pretty JSON
//   binary      BinaryTraceWriter: varint/f64 records, per-window flush
//
// Hard gates (any tier, any hardware — these are correctness, not perf):
//   * the binary file re-emitted as JSON equals the streamed file byte
//     for byte;
//   * the binary file is >= 5x smaller than the pretty JSON;
//   * the binary file reloads to the same deterministic fingerprint;
//   * the streaming writer's peak buffer is O(one window), not O(run).
//
// Emits BENCH_trace_io.json (sizes, seconds, bytes/window) plus the
// trace files themselves (trace_sim_<tier>.json / .trc) into
// IAAS_BENCH_CSV_DIR — the ctest smoke chain points trace_convert
// --check and check_trace at that directory.
//
// Tiers: fast (16 servers, 12 windows) for the smoke test; default
// (32 servers, 60 windows) for the nightly gate.  IAAS_BENCH_FAST picks
// fast; IAAS_SIM_WINDOWS overrides the horizon.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/nsga_allocators.h"
#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "common/table.h"
#include "io/emit.h"
#include "io/trace_binary.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"

namespace {

using namespace iaas;

struct Tier {
  const char* name = "default";
  std::uint32_t servers = 32;
  std::size_t windows = 60;
  double arrivals = 10.0;
  std::size_t reps = 5;  // emission repetitions (mean reported)
};

std::string load_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<WindowMetrics> run_horizon(const Tier& tier) {
  SimConfig cfg;
  cfg.windows = tier.windows;
  cfg.arrivals_per_window_mean = tier.arrivals;
  cfg.departure_probability = 0.12;
  cfg.scenario = ScenarioConfig::paper_scale(tier.servers);
  cfg.faults.server_failure_probability = 0.06;
  cfg.faults.leaf_failure_probability = 0.05;
  cfg.faults.mttr_min_windows = 1;
  cfg.faults.mttr_max_windows = 3;
  cfg.faults.decommission_probability = 0.05;
  cfg.retry.max_attempts = 3;
  // Admission control on, so the optional admission block is exercised.
  cfg.max_admissions_per_window =
      static_cast<std::size_t>(tier.arrivals) + 2;
  cfg.admission_queue_limit = static_cast<std::size_t>(tier.arrivals) * 6;
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  options.nsga.collect_trace = true;  // nested allocator_trace per window
  options.nsga.threads = 1;
  CloudSimulator sim(cfg, std::make_unique<Nsga3TabuAllocator>(options));
  return sim.run(20170529);
}

}  // namespace

int main() {
  std::printf("=== Trace-IO: streaming JSON vs binary emission ===\n");

  Tier tier;
  if (std::getenv("IAAS_BENCH_FAST") != nullptr) {
    tier = {"fast", 16, 12, 8.0, 3};
  }
  if (const char* env = std::getenv("IAAS_SIM_WINDOWS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) {
      tier.windows = static_cast<std::size_t>(parsed);
    }
  }
  const std::string dir = bench::csv_dir();
  const std::string json_path =
      dir + "/trace_sim_" + tier.name + ".json";
  const std::string binary_path =
      dir + "/trace_sim_" + tier.name + ".trc";

  std::printf("tier %s: %u servers, %zu windows (fault injection + EA "
              "trace)\n",
              tier.name, tier.servers, tier.windows);
  const std::vector<WindowMetrics> rows = run_horizon(tier);
  const std::uint64_t fingerprint = deterministic_fingerprint(rows);

  // --- streaming path ------------------------------------------------
  double stream_seconds = 0.0;
  std::size_t stream_bytes = 0;
  std::size_t peak_buffer = 0;
  for (std::size_t rep = 0; rep < tier.reps; ++rep) {
    Stopwatch timer;
    SimTraceWriter writer(json_path);
    for (const WindowMetrics& row : rows) {
      writer.append(row);
    }
    writer.finish();
    stream_seconds += timer.elapsed_seconds();
    stream_bytes = writer.bytes_written();
    peak_buffer = writer.peak_buffer_bytes();
  }
  stream_seconds /= static_cast<double>(tier.reps);

  // --- binary path ---------------------------------------------------
  double binary_seconds = 0.0;
  std::size_t binary_bytes = 0;
  for (std::size_t rep = 0; rep < tier.reps; ++rep) {
    Stopwatch timer;
    BinaryTraceWriter writer(binary_path);
    for (const WindowMetrics& row : rows) {
      writer.append(row);
    }
    writer.finish();
    binary_seconds += timer.elapsed_seconds();
    binary_bytes = writer.bytes_written();
  }
  binary_seconds /= static_cast<double>(tier.reps);

  const double ratio = binary_bytes == 0
                           ? 0.0
                           : static_cast<double>(stream_bytes) /
                                 static_cast<double>(binary_bytes);
  const double bytes_per_window =
      static_cast<double>(stream_bytes) /
      static_cast<double>(std::max<std::size_t>(rows.size(), 1));

  TextTable table({"path", "seconds", "bytes", "bytes/window"});
  table.add_row({"streaming", TextTable::num(stream_seconds, 6),
                 std::to_string(stream_bytes),
                 TextTable::num(bytes_per_window, 1)});
  table.add_row({"binary", TextTable::num(binary_seconds, 6),
                 std::to_string(binary_bytes),
                 TextTable::num(static_cast<double>(binary_bytes) /
                                    static_cast<double>(rows.size()),
                                1)});
  table.print();
  std::printf("compression ratio (pretty JSON / binary): %.2fx\n", ratio);
  std::printf("streaming peak buffer: %zu bytes (%zu windows, "
              "%.0f bytes/window)\n",
              peak_buffer, rows.size(), bytes_per_window);
  std::printf("deterministic_fingerprint=%016llx\n",
              static_cast<unsigned long long>(fingerprint));

  // --- hard gates ----------------------------------------------------
  bool ok = true;
  const std::vector<WindowMetrics> reloaded =
      read_binary_sim_trace(binary_path);
  const std::string reemit_path = json_path + ".reemit";
  write_sim_trace_json(reloaded, reemit_path);
  if (load_text(reemit_path) != load_text(json_path)) {
    std::fprintf(stderr, "FAIL: the binary trace re-emitted as JSON "
                         "differs from the streamed JSON\n");
    ok = false;
  }
  std::remove(reemit_path.c_str());
  if (ratio < 5.0) {
    std::fprintf(stderr,
                 "FAIL: binary trace only %.2fx smaller than pretty "
                 "JSON (floor 5x)\n",
                 ratio);
    ok = false;
  }
  if (deterministic_fingerprint(reloaded) != fingerprint) {
    std::fprintf(stderr, "FAIL: binary reload changed the "
                         "deterministic fingerprint\n");
    ok = false;
  }
  // O(one window) memory: the buffer never holds more than a few
  // windows' worth of text no matter how long the horizon is.
  if (rows.size() >= 8 &&
      static_cast<double>(peak_buffer) > 4.0 * bytes_per_window + 4096.0) {
    std::fprintf(stderr,
                 "FAIL: streaming peak buffer %zu bytes is not O(one "
                 "window) (%.0f bytes/window)\n",
                 peak_buffer, bytes_per_window);
    ok = false;
  }

  // --- machine-readable roll-up --------------------------------------
  const std::string bench_path = dir + "/BENCH_trace_io.json";
  {
    std::string out;
    JsonEmitter e(out, 2);
    e.begin_object();
    e.key("bench");
    e.value("trace_io");
    e.key("tier");
    e.value(tier.name);
    e.key("servers");
    e.value(static_cast<std::uint64_t>(tier.servers));
    e.key("window_count");
    e.value(static_cast<std::uint64_t>(rows.size()));
    e.key("streaming_seconds");
    e.value(stream_seconds);
    e.key("binary_seconds");
    e.value(binary_seconds);
    e.key("json_bytes");
    e.value(static_cast<std::uint64_t>(stream_bytes));
    e.key("binary_bytes");
    e.value(static_cast<std::uint64_t>(binary_bytes));
    e.key("bytes_per_window");
    e.value(bytes_per_window);
    e.key("compression_ratio");
    e.value(ratio);
    e.key("peak_buffer_bytes");
    e.value(static_cast<std::uint64_t>(peak_buffer));
    e.key("gates_passed");
    e.value(ok);
    e.end_object();
    out += '\n';
    JsonFileSink sink(bench_path);
    sink.write(out);
    sink.close();
    std::printf("\nWrote %s\n", bench_path.c_str());
  }
  std::printf("trace files: %s, %s\n", json_path.c_str(),
              binary_path.c_str());
  std::printf("gates: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
