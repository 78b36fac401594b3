// The simulator-trace JSON round trip: a whole eventful horizon, one
// allocator run trace, and the shape errors the parser must refuse.
#include <gtest/gtest.h>

#include "algo/nsga_allocators.h"
#include "io/trace_json.h"
#include "sim/simulator.h"
#include "tests/trace_text.h"

namespace iaas {
namespace {

// A horizon with real failure events, retries AND degraded windows: rack
// 0 dies at window 1, a 1 ns deadline truncates the EA every window, and
// overload keeps the retry queue busy.
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

TEST(SimTraceJson, EmitParseReEmitIsByteIdentical) {
  const std::vector<WindowMetrics> metrics = eventful_run();
  // The scenario must actually exercise what the format claims to carry.
  const SimSummary summary = summarize(metrics);
  ASSERT_GT(summary.fault_events, 0u);
  ASSERT_GT(summary.degraded_windows, 0u);
  bool has_trace = false;
  for (const WindowMetrics& w : metrics) {
    has_trace = has_trace || !w.allocator_trace.empty();
  }
  ASSERT_TRUE(has_trace);

  const std::string text = test::sim_trace_text(metrics);
  const std::vector<WindowMetrics> parsed =
      sim_trace_from_json(Json::parse(text));
  EXPECT_EQ(test::sim_trace_text(parsed), text);
  // And the parsed horizon is the same run, not just the same text.
  EXPECT_EQ(deterministic_fingerprint(parsed),
            deterministic_fingerprint(metrics));
  ASSERT_EQ(parsed.size(), metrics.size());
  for (std::size_t w = 0; w < metrics.size(); ++w) {
    EXPECT_EQ(parsed[w].fault_events, metrics[w].fault_events);
    EXPECT_EQ(parsed[w].degrade, metrics[w].degrade);
    EXPECT_EQ(parsed[w].retry_queue_depth, metrics[w].retry_queue_depth);
    EXPECT_DOUBLE_EQ(parsed[w].solve_seconds, metrics[w].solve_seconds);
  }
}

TEST(SimTraceJson, RunTraceRoundTripsThroughJson) {
  telemetry::RunTrace trace;
  trace.label = "nsga3 w2";
  trace.seed = 12345;
  telemetry::GenerationRow row;
  row.generation = 3;
  row.evaluations = 160;
  row.delta_moves = 40;
  row.rebases = 9;
  row.repair_invocations = 80;
  row.front_size = 7;
  row.best_objectives = {1.5, 0.0, 2.25};
  row.seconds_evaluate = 0.015625;  // dyadic: exact through JSON
  trace.rows.push_back(row);
  const std::string text = test::run_trace_text(trace);
  const telemetry::RunTrace back = trace_from_json(Json::parse(text));
  EXPECT_EQ(back.label, trace.label);
  EXPECT_EQ(back.seed, trace.seed);
  ASSERT_EQ(back.rows.size(), 1u);
  EXPECT_EQ(back.rows[0].generation, 3u);
  EXPECT_EQ(back.rows[0].evaluations, 160u);
  EXPECT_EQ(back.rows[0].delta_moves, 40u);
  EXPECT_EQ(back.rows[0].rebases, 9u);
  EXPECT_EQ(back.rows[0].repair_invocations, 80u);
  EXPECT_EQ(back.rows[0].front_size, 7u);
  EXPECT_DOUBLE_EQ(back.rows[0].best_objectives[2], 2.25);
  EXPECT_DOUBLE_EQ(back.rows[0].seconds_evaluate, 0.015625);
  EXPECT_EQ(test::run_trace_text(back), text);
}

TEST(SimTraceJson, ShapeErrorsThrow) {
  EXPECT_THROW(sim_trace_from_json(Json::parse(R"({"nope": []})")),
               std::runtime_error);
  EXPECT_THROW(
      sim_trace_from_json(Json::parse(
          R"({"windows": [{"window": 0}]})")),
      std::runtime_error);
  // An empty horizon is a valid document, not a shape error.
  Json empty = Json::object();
  empty["windows"] = Json::array();
  EXPECT_TRUE(sim_trace_from_json(empty).empty());
}

}  // namespace
}  // namespace iaas
