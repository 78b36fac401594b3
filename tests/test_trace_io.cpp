// The streaming trace path (io/emit + io/trace_stream) and the compact
// binary trace format (io/trace_binary): emitter-vs-tree byte
// equivalence, incremental per-window flushing, emit -> parse -> re-emit
// identity, and lossless binary round trips over every trace flavour
// (faulted, admission-controlled, sharded, brokered, strategic).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/nsga_allocators.h"
#include "algo/sharded_allocator.h"
#include "broker/multicloud_sim.h"
#include "io/emit.h"
#include "io/json.h"
#include "io/trace_binary.h"
#include "io/trace_json.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"
#include "tests/trace_text.h"
#include "workload/strategic.h"

namespace iaas {
namespace {

std::string load_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- JsonEmitter vs Json::dump --------------------------------------

// A document covering every emitter branch: empty containers, nesting,
// escapes, integral doubles, fractional doubles, negative zero, bools,
// unsigned 64-bit integer lexemes.
Json tricky_document() {
  Json doc = Json::object();
  doc["empty_object"] = Json::object();
  doc["empty_array"] = Json::array();
  doc["escapes"] = Json::string("quote\" slash\\ tab\t nl\n ctl\x01");
  doc["numbers"] = Json::array();
  doc["numbers"].push_back(Json::number(42.0));   // integral double
  doc["numbers"].push_back(Json::number(0.1));    // 17-digit mantissa
  doc["numbers"].push_back(Json::number(-0.0));   // signed zero
  doc["numbers"].push_back(Json::number(1e300));  // huge magnitude
  doc["numbers"].push_back(Json::integer(std::uint64_t{1} << 63));
  doc["flags"] = Json::array();
  doc["flags"].push_back(Json::boolean(true));
  doc["flags"].push_back(Json::boolean(false));
  Json nested = Json::object();
  nested["inner"] = Json::array();
  nested["inner"].push_back(Json::string("x"));
  doc["nested"] = nested;
  return doc;
}

// Drive an emitter through the same structure by hand.
void emit_tricky(JsonEmitter& e) {
  e.begin_object();
  e.key("empty_object");
  e.begin_object();
  e.end_object();
  e.key("empty_array");
  e.begin_array();
  e.end_array();
  e.key("escapes");
  e.value("quote\" slash\\ tab\t nl\n ctl\x01");
  e.key("numbers");
  e.begin_array();
  e.value(42.0);
  e.value(0.1);
  e.value(-0.0);
  e.value(1e300);
  e.value(std::uint64_t{1} << 63);
  e.end_array();
  e.key("flags");
  e.begin_array();
  e.value(true);
  e.value(false);
  e.end_array();
  e.key("nested");
  e.begin_object();
  e.key("inner");
  e.begin_array();
  e.value("x");
  e.end_array();
  e.end_object();
  e.end_object();
}

TEST(JsonEmitter, MatchesTreeDumpByteForByte) {
  const Json doc = tricky_document();
  for (int indent : {-1, 0, 2, 4}) {
    std::string streamed;
    JsonEmitter e(streamed, indent);
    emit_tricky(e);
    EXPECT_EQ(streamed, doc.dump(indent)) << "indent " << indent;
  }
}

// --- simulation fixtures --------------------------------------------

// A horizon with fault events, retries, degraded windows and nested
// allocator traces (mirrors test_trace_archive's eventful_run).
std::vector<WindowMetrics> eventful_run() {
  SimConfig cfg;
  cfg.windows = 5;
  cfg.arrivals_per_window_mean = 12.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.faults.scripted = {{1, /*leaf_level=*/true, 0, /*mttr_windows=*/2,
                          false},
                         {3, false, 9, 1, /*decommission=*/true}};
  cfg.retry.max_attempts = 3;
  cfg.allocator_deadline_seconds = 1e-9;
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  options.nsga.collect_trace = true;
  CloudSimulator sim(cfg, std::make_unique<Nsga3Allocator>(options));
  return sim.run(29);
}

// Admission-controlled horizon: the admission block columns go nonzero.
std::vector<WindowMetrics> admission_run() {
  SimConfig cfg;
  cfg.windows = 6;
  cfg.arrival_schedule = {14, 4};
  cfg.departure_probability = 0.2;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.scenario.vms = 0;
  cfg.max_admissions_per_window = 8;
  cfg.admission_queue_limit = 20;
  cfg.retry.max_attempts = 2;
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  CloudSimulator sim(cfg, std::make_unique<Nsga3TabuAllocator>(options));
  return sim.run(7);
}

// Sharded horizon: ShardRunStats flows into the trace's shard block.
std::vector<WindowMetrics> sharded_run() {
  SimConfig cfg;
  cfg.windows = 4;
  cfg.arrivals_per_window_mean = 10.0;
  cfg.scenario = ScenarioConfig::paper_scale(32, 2);
  ShardedAllocatorOptions options;
  options.shard_count = 2;
  options.threads = 1;
  options.suite.ea.nsga.population_size = 16;
  options.suite.ea.nsga.max_evaluations = 320;
  options.suite.ea.nsga.reference_divisions = 4;
  CloudSimulator sim(cfg, std::make_unique<ShardedAllocator>(options));
  return sim.run(11);
}

// Brokered multi-cloud horizon: per-provider rows land in the trace.
std::vector<WindowMetrics> brokered_run() {
  ScenarioConfig tiny;
  tiny.datacenters = 1;
  tiny.total_servers = 16;
  tiny.servers_per_leaf = 8;
  tiny.vms = 0;

  CloudMarketConfig market;
  ProviderConfig alpha;
  alpha.id = "alpha";
  alpha.scenario = tiny;
  alpha.pricing.billing = BillingModel::kOnDemand;
  ProviderConfig beta;
  beta.id = "beta";
  beta.scenario = tiny;
  beta.pricing.billing = BillingModel::kReserved;
  beta.pricing.reserved_multiplier = 0.6;
  market.providers = {alpha, beta};

  MultiCloudSimConfig cfg;
  cfg.windows = 6;
  cfg.arrival_schedule = {8, 6, 4};
  cfg.departure_probability = 0.1;
  cfg.retry.max_attempts = 3;
  cfg.market = market;
  cfg.request_shape = tiny;
  MultiCloudSimulator sim(cfg);
  return sim.run(13);
}

using test::sim_trace_text;

// --- streaming writers ----------------------------------------------

TEST(SimTraceStreaming, FileReParsesToTheSameBytes) {
  const std::vector<WindowMetrics> rows = eventful_run();
  ASSERT_GT(summarize(rows).fault_events, 0u);
  const std::string path = temp_path("iaas_trace_stream.json");
  write_sim_trace_json(rows, path);
  const std::string text = load_text(path);
  EXPECT_EQ(text, sim_trace_text(rows));
  const std::vector<WindowMetrics> parsed =
      sim_trace_from_json(Json::parse(text));
  EXPECT_EQ(sim_trace_text(parsed), text);
  EXPECT_EQ(deterministic_fingerprint(parsed),
            deterministic_fingerprint(rows));
  std::filesystem::remove(path);
}

TEST(SimTraceStreaming, PerWindowSinkFlushesIncrementally) {
  SimConfig cfg;
  cfg.windows = 6;
  cfg.arrivals_per_window_mean = 8.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.faults.server_failure_probability = 0.1;
  cfg.faults.mttr_min_windows = 1;
  cfg.faults.mttr_max_windows = 2;
  cfg.retry.max_attempts = 2;
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  CloudSimulator sim(cfg, std::make_unique<Nsga3TabuAllocator>(options));

  const std::string path = temp_path("iaas_trace_incremental.json");
  SimTraceWriter writer(path);
  std::size_t observed = 0;
  std::size_t bytes_mid_run = 0;
  sim.set_window_sink([&](const WindowMetrics& row) {
    writer.append(row);
    ++observed;
    if (observed == 3) {
      // The first windows are already on disk while the run continues —
      // that is the whole point of the streaming path.
      bytes_mid_run = std::filesystem::file_size(path);
    }
  });
  const std::vector<WindowMetrics> rows = sim.run(17);
  writer.finish();

  EXPECT_EQ(observed, rows.size());
  EXPECT_EQ(writer.windows_written(), rows.size());
  EXPECT_GT(bytes_mid_run, 0u);
  EXPECT_LT(bytes_mid_run, writer.bytes_written());
  // Peak emission memory is one window, not the horizon.
  EXPECT_LT(writer.peak_buffer_bytes(), writer.bytes_written());
  EXPECT_EQ(load_text(path), sim_trace_text(rows));
  std::filesystem::remove(path);
}

TEST(SimTraceStreaming, EmptyHorizonStillFormsAValidDocument) {
  const std::string path = temp_path("iaas_trace_empty.json");
  {
    SimTraceWriter writer(path);
    writer.finish();
  }
  const std::vector<WindowMetrics> parsed =
      sim_trace_from_json(Json::parse(load_text(path)));
  EXPECT_TRUE(parsed.empty());
  std::filesystem::remove(path);
}

// --- binary round trips ---------------------------------------------

void expect_binary_roundtrip(const std::vector<WindowMetrics>& rows,
                             const std::string& tag) {
  SCOPED_TRACE(tag);
  const std::string path = temp_path("iaas_trace_" + tag + ".trc");
  write_binary_sim_trace(rows, path);
  ASSERT_TRUE(is_binary_trace_file(path));
  EXPECT_EQ(binary_trace_kind(path), BinaryTraceKind::kSimTrace);
  const std::vector<WindowMetrics> reloaded =
      read_binary_sim_trace(path);
  EXPECT_EQ(deterministic_fingerprint(reloaded),
            deterministic_fingerprint(rows));
  // Lossless beyond the fingerprint: the reloaded rows re-emit to the
  // exact canonical JSON text (wall clocks and all).
  EXPECT_EQ(sim_trace_text(reloaded),
            sim_trace_text(rows));
  // And the streaming binary writer produces the same file.
  const std::string streamed_path =
      temp_path("iaas_trace_" + tag + "_streamed.trc");
  {
    BinaryTraceWriter writer(streamed_path);
    for (const WindowMetrics& row : rows) {
      writer.append(row);
    }
    writer.finish();
    EXPECT_EQ(writer.windows_written(), rows.size());
  }
  EXPECT_EQ(load_text(streamed_path), load_text(path));
  std::filesystem::remove(path);
  std::filesystem::remove(streamed_path);
}

TEST(BinaryTrace, FaultedTraceRoundTrips) {
  const std::vector<WindowMetrics> rows = eventful_run();
  bool has_trace = false;
  for (const WindowMetrics& w : rows) {
    has_trace = has_trace || !w.allocator_trace.empty();
  }
  ASSERT_TRUE(has_trace);  // nested run traces must be exercised
  expect_binary_roundtrip(rows, "faulted");
}

TEST(BinaryTrace, AdmissionTraceRoundTrips) {
  const std::vector<WindowMetrics> rows = admission_run();
  const SimSummary summary = summarize(rows);
  ASSERT_GT(summary.admission_deferred, 0u);  // block present
  expect_binary_roundtrip(rows, "admission");
}

TEST(BinaryTrace, ShardedTraceRoundTrips) {
  const std::vector<WindowMetrics> rows = sharded_run();
  bool has_shards = false;
  for (const WindowMetrics& w : rows) {
    has_shards = has_shards || w.shard.shard_count > 0;
  }
  ASSERT_TRUE(has_shards);
  expect_binary_roundtrip(rows, "sharded");
}

TEST(BinaryTrace, BrokeredTraceRoundTrips) {
  const std::vector<WindowMetrics> rows = brokered_run();
  bool has_providers = false;
  for (const WindowMetrics& w : rows) {
    has_providers = has_providers || !w.providers.empty();
  }
  ASSERT_TRUE(has_providers);
  expect_binary_roundtrip(rows, "brokered");
}

// Strategic-consumer horizon: fairness/welfare columns in every
// non-empty window.
std::vector<WindowMetrics> strategic_run() {
  SimConfig cfg;
  cfg.windows = 4;
  cfg.arrivals_per_window_mean = 10.0;
  cfg.departure_probability = 0.15;
  cfg.scenario = ScenarioConfig::paper_scale(32, 2);
  cfg.scenario.vms = 0;
  cfg.scenario.consumers = 6;
  cfg.scenario.strategic.strategic_fraction = 0.5;
  cfg.scenario.strategic.profiles = default_strategy_profiles();
  EaAllocatorOptions options;
  options.nsga.population_size = 16;
  options.nsga.max_evaluations = 320;
  options.nsga.reference_divisions = 4;
  CloudSimulator sim(cfg, std::make_unique<Nsga3TabuAllocator>(options));
  return sim.run(23);
}

TEST(BinaryTrace, StrategicTraceRoundTrips) {
  const std::vector<WindowMetrics> rows = strategic_run();
  bool has_fairness = false;
  bool has_strategic = false;
  for (const WindowMetrics& w : rows) {
    has_fairness = has_fairness || w.fairness.consumers > 0;
    has_strategic = has_strategic || w.fairness.strategic_vms > 0;
  }
  ASSERT_TRUE(has_fairness);
  ASSERT_TRUE(has_strategic);
  expect_binary_roundtrip(rows, "strategic");
}

TEST(SimTraceJson, FairnessBlockRoundTripsThroughJson) {
  const std::vector<WindowMetrics> rows = strategic_run();
  const Json doc = Json::parse(sim_trace_text(rows));
  const Json& windows = doc.at("windows");
  bool any_block = false;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Json& w = windows.at(i);
    if (rows[i].fairness.consumers == 0) {
      EXPECT_FALSE(w.contains("fairness"));  // absent, not zero-filled
      continue;
    }
    any_block = true;
    ASSERT_TRUE(w.contains("fairness"));
    const Json& f = w.at("fairness");
    EXPECT_EQ(static_cast<std::size_t>(f.at("consumers").as_number()),
              rows[i].fairness.consumers);
    EXPECT_DOUBLE_EQ(f.at("jain_index").as_number(),
                     rows[i].fairness.jain_index);
    EXPECT_DOUBLE_EQ(f.at("energy_cost").as_number(),
                     rows[i].fairness.energy_cost);
  }
  ASSERT_TRUE(any_block);
  const std::vector<WindowMetrics> reloaded = sim_trace_from_json(doc);
  EXPECT_EQ(deterministic_fingerprint(reloaded),
            deterministic_fingerprint(rows));
}

TEST(BinaryTrace, RunTraceWithHuge64BitSeedRoundTrips) {
  telemetry::RunTrace trace;
  trace.label = "huge-seed";
  trace.seed = (std::uint64_t{1} << 63) + 12345;  // > 2^53: a double
                                                  // path would corrupt it
  telemetry::GenerationRow row;
  row.generation = 1;
  row.evaluations = (std::uint64_t{1} << 53) + 7;
  row.front_size = 3;
  row.best_objectives = {1.0, 2.0, 3.0};
  row.seconds_evaluate = 0.25;
  trace.rows.push_back(row);

  // Through JSON (integer lexemes)...
  const telemetry::RunTrace via_json =
      trace_from_json(Json::parse(test::run_trace_text(trace)));
  EXPECT_EQ(via_json.seed, trace.seed);
  EXPECT_EQ(via_json.rows[0].evaluations, trace.rows[0].evaluations);

  // ...and through the binary format.
  const std::string path = temp_path("iaas_trace_runtrace.trc");
  write_binary_run_trace(trace, path);
  EXPECT_EQ(binary_trace_kind(path), BinaryTraceKind::kRunTrace);
  const telemetry::RunTrace reloaded = read_binary_run_trace(path);
  EXPECT_EQ(reloaded.seed, trace.seed);
  EXPECT_EQ(reloaded.label, trace.label);
  ASSERT_EQ(reloaded.rows.size(), 1u);
  EXPECT_EQ(reloaded.rows[0].evaluations, trace.rows[0].evaluations);
  EXPECT_DOUBLE_EQ(reloaded.rows[0].seconds_evaluate, 0.25);
  EXPECT_EQ(test::run_trace_text(reloaded), test::run_trace_text(trace));
  std::filesystem::remove(path);
}

TEST(BinaryTrace, MalformedInputThrows) {
  const std::string path = temp_path("iaas_trace_bad.trc");
  // Not a binary trace at all.
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"windows\": []}\n";
  }
  EXPECT_FALSE(is_binary_trace_file(path));
  EXPECT_THROW(binary_trace_kind(path), std::runtime_error);
  EXPECT_THROW(read_binary_sim_trace(path), std::runtime_error);

  // A valid trace truncated mid-stream loses its end marker.
  const std::vector<WindowMetrics> rows = admission_run();
  write_binary_sim_trace(rows, path);
  const std::string full = load_text(path);
  {
    std::ofstream out(path, std::ios::binary);
    out << full.substr(0, full.size() / 2);
  }
  EXPECT_TRUE(is_binary_trace_file(path));
  EXPECT_THROW(read_binary_sim_trace(path), std::runtime_error);

  // Kind confusion: a sim trace is not a run trace.
  write_binary_sim_trace(rows, path);
  EXPECT_THROW(read_binary_run_trace(path), std::runtime_error);

  // Forged counts must not size an allocation.  A default window's
  // record reaches its fault-event count after 35 bytes: header 13, tag
  // and flags 2, seven one-byte varints, a double, five varints.  Then
  // a count of 2^55 (eight varint bytes) makes a 43-byte file.
  const auto write_bytes = [&path](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    out << bytes;
  };
  write_binary_sim_trace({WindowMetrics{}}, path);
  const std::string window = load_text(path);
  write_bytes(window.substr(0, 35) + std::string(7, '\x80') + '\x40');
  EXPECT_THROW(read_binary_sim_trace(path), std::runtime_error);
  // A flag bit no block declares (byte 14 is the record's flags byte).
  std::string flagged = window;
  flagged[14] = '\x80';
  write_bytes(flagged);
  EXPECT_THROW(read_binary_sim_trace(path), std::runtime_error);
  // A run trace reaches its row count after 16 bytes: header 13, an
  // empty label, seed 0 and the column count.  A count of 2^62 (nine
  // varint bytes) makes a 25-byte file.
  write_binary_run_trace(telemetry::RunTrace{}, path);
  const std::string run = load_text(path);
  write_bytes(run.substr(0, 16) + std::string(8, '\x80') + '\x40');
  EXPECT_THROW(read_binary_run_trace(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceReaders, RejectThirtyTwoBitOverflow) {
  // One 32-bit field at a time holds 2^32 - 1; the readers accept it
  // and reject the same field one past it.
  constexpr std::uint32_t kMax = 0xFFFFFFFFu;
  const std::string path = temp_path("iaas_trace_overflow.trc");
  for (int field = 0; field < 3; ++field) {
    SCOPED_TRACE(field);
    WindowMetrics row;
    row.fault_events = {{0, FaultEventKind::kServerFailure,
                         field == 0 ? kMax : 1u,
                         {field == 1 ? kMax : 2u}, 1}};
    row.providers.resize(1);
    row.providers[0].provider = field == 2 ? kMax : 3u;
    const std::vector<WindowMetrics> rows = {row};
    const auto same = [&row](const std::vector<WindowMetrics>& read) {
      return read.size() == 1 && read[0].fault_events == row.fault_events &&
             read[0].providers.size() == 1 &&
             read[0].providers[0].provider == row.providers[0].provider;
    };

    const std::string text = sim_trace_text(rows);
    EXPECT_TRUE(same(sim_trace_from_json(Json::parse(text))));
    std::string json = text;
    json.replace(json.find("4294967295"), 10, "4294967296");
    EXPECT_THROW(sim_trace_from_json(Json::parse(json)), std::runtime_error);

    // The varint of 2^32 - 1 ends in 0x0F; 0x1F makes it 2^33 - 1.
    write_binary_sim_trace(rows, path);
    EXPECT_TRUE(same(read_binary_sim_trace(path)));
    std::string binary = load_text(path);
    binary[binary.find("\xFF\xFF\xFF\xFF\x0F") + 4] = '\x1F';
    {
      std::ofstream out(path, std::ios::binary);
      out << binary;
    }
    EXPECT_THROW(read_binary_sim_trace(path), std::runtime_error);
  }
  std::filesystem::remove(path);
}

TEST(BinaryTrace, CompactsRichTracesByFiveTimesOrMore) {
  const std::vector<WindowMetrics> rows = eventful_run();
  const std::string path = temp_path("iaas_trace_ratio.trc");
  write_binary_sim_trace(rows, path);
  const std::size_t binary_bytes = std::filesystem::file_size(path);
  const std::size_t json_bytes = sim_trace_text(rows).size();
  EXPECT_GE(json_bytes, binary_bytes * 5)
      << "json " << json_bytes << " vs binary " << binary_bytes;
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace iaas
