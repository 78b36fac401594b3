// Arrival traces (diurnal + bursts), the external Pareto archive, and
// the simulator-trace JSON round trip.
#include <gtest/gtest.h>

#include "algo/nsga_allocators.h"
#include "algo/round_robin.h"
#include "ea/archive.h"
#include "ea/nsga3.h"
#include "io/trace_json.h"
#include "sim/simulator.h"
#include "tests/test_util.h"
#include "tests/trace_text.h"
#include "workload/trace.h"

namespace iaas {
namespace {

TEST(ArrivalTrace, DiurnalCurvePeaksWhereConfigured) {
  TraceConfig cfg;
  cfg.windows = 24;
  cfg.trough_rate = 5.0;
  cfg.peak_rate = 50.0;
  cfg.peak_window = 14.0;
  const ArrivalTrace trace(cfg, 1);
  EXPECT_NEAR(trace.expected_rate(14), 50.0, 1e-9);
  EXPECT_NEAR(trace.expected_rate(2), 5.0, 1e-9);  // antipode (14-12)
  // Monotone rise toward the peak on one flank.
  EXPECT_LT(trace.expected_rate(8), trace.expected_rate(11));
  EXPECT_LT(trace.expected_rate(11), trace.expected_rate(14));
}

TEST(ArrivalTrace, CountsMatchWindowCount) {
  TraceConfig cfg;
  cfg.windows = 48;
  const ArrivalTrace trace(cfg, 2);
  EXPECT_EQ(trace.counts().size(), 48u);
  EXPECT_EQ(trace.burst_windows().size(), 48u);
  EXPECT_EQ(trace.arrivals(48), trace.arrivals(0));  // wraps
}

TEST(ArrivalTrace, DeterministicPerSeed) {
  TraceConfig cfg;
  const ArrivalTrace a(cfg, 7);
  const ArrivalTrace b(cfg, 7);
  EXPECT_EQ(a.counts(), b.counts());
  const ArrivalTrace c(cfg, 8);
  EXPECT_NE(a.counts(), c.counts());
}

TEST(ArrivalTrace, TotalTracksExpectedVolume) {
  TraceConfig cfg;
  cfg.windows = 200;
  cfg.trough_rate = 10.0;
  cfg.peak_rate = 10.0;  // flat curve: mean 10/window
  cfg.burst_probability = 0.0;
  const ArrivalTrace trace(cfg, 3);
  const double mean = static_cast<double>(trace.total_arrivals()) / 200.0;
  EXPECT_NEAR(mean, 10.0, 1.0);
}

TEST(ArrivalTrace, BurstsAmplifyWindows) {
  TraceConfig cfg;
  cfg.windows = 400;
  cfg.trough_rate = 20.0;
  cfg.peak_rate = 20.0;
  cfg.burst_probability = 0.5;
  cfg.burst_multiplier = 4.0;
  const ArrivalTrace trace(cfg, 4);
  double burst_mean = 0.0;
  double calm_mean = 0.0;
  std::size_t bursts = 0;
  for (std::size_t w = 0; w < cfg.windows; ++w) {
    if (trace.burst_windows()[w]) {
      burst_mean += static_cast<double>(trace.counts()[w]);
      ++bursts;
    } else {
      calm_mean += static_cast<double>(trace.counts()[w]);
    }
  }
  ASSERT_GT(bursts, 50u);
  burst_mean /= static_cast<double>(bursts);
  calm_mean /= static_cast<double>(cfg.windows - bursts);
  EXPECT_GT(burst_mean, 2.0 * calm_mean);
}

TEST(ArrivalTrace, DrivesSimulatorSchedule) {
  TraceConfig tcfg;
  tcfg.windows = 6;
  tcfg.trough_rate = 3.0;
  tcfg.peak_rate = 9.0;
  const ArrivalTrace trace(tcfg, 5);

  SimConfig cfg;
  cfg.windows = 6;
  cfg.departure_probability = 0.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.arrival_schedule = trace.counts();
  CloudSimulator sim(cfg, std::make_unique<RoundRobinAllocator>());
  const auto metrics = sim.run(11);
  for (std::size_t w = 0; w < 6; ++w) {
    EXPECT_EQ(metrics[w].arrived, trace.counts()[w]);
  }
}

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

Individual ind(double a, double b, double c, std::uint32_t violations = 0) {
  Individual i;
  i.objectives = {a, b, c};
  i.violations = violations;
  return i;
}

TEST(ParetoArchive, KeepsNondominated) {
  ParetoArchive archive(10);
  EXPECT_TRUE(archive.insert(ind(1, 2, 3)));
  EXPECT_TRUE(archive.insert(ind(3, 2, 1)));
  EXPECT_EQ(archive.size(), 2u);
}

TEST(ParetoArchive, RejectsDominatedAndDuplicates) {
  ParetoArchive archive(10);
  EXPECT_TRUE(archive.insert(ind(1, 1, 1)));
  EXPECT_FALSE(archive.insert(ind(2, 2, 2)));  // dominated
  EXPECT_FALSE(archive.insert(ind(1, 1, 1)));  // duplicate
  EXPECT_EQ(archive.size(), 1u);
}

TEST(ParetoArchive, EntrantEvictsDominatedMembers) {
  ParetoArchive archive(10);
  archive.insert(ind(5, 5, 5));
  archive.insert(ind(6, 4, 5));
  EXPECT_TRUE(archive.insert(ind(1, 1, 1)));  // dominates both
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.members()[0].objectives, (ObjArray{1, 1, 1}));
}

TEST(ParetoArchive, FeasibleBeatsInfeasible) {
  ParetoArchive archive(10);
  archive.insert(ind(1, 1, 1, /*violations=*/3));
  EXPECT_TRUE(archive.insert(ind(9, 9, 9, 0)));
  // The feasible entrant constrained-dominates the infeasible member.
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(archive.members()[0].violations, 0u);
}

TEST(ParetoArchive, CapacityEvictsMostCrowded) {
  ParetoArchive archive(3);
  // Four mutually non-dominated points on a line; the inner ones are the
  // crowded candidates for eviction.
  archive.insert(ind(0, 10, 5));
  archive.insert(ind(10, 0, 5));
  archive.insert(ind(4, 6, 5));
  EXPECT_TRUE(archive.insert(ind(5, 5, 5)));
  EXPECT_EQ(archive.size(), 3u);
  // The boundary points must survive (infinite crowding).
  bool has_low = false;
  bool has_high = false;
  for (const Individual& m : archive.members()) {
    has_low = has_low || m.objectives[0] == 0.0;
    has_high = has_high || m.objectives[0] == 10.0;
  }
  EXPECT_TRUE(has_low);
  EXPECT_TRUE(has_high);
}

TEST(ParetoArchive, EngineIntegration) {
  const Instance inst = test::make_random_instance(17, 8, 16);
  const AllocationProblem problem(inst);
  NsgaConfig cfg;
  cfg.population_size = 16;
  cfg.max_evaluations = 320;
  cfg.reference_divisions = 4;
  cfg.archive_capacity = 50;
  Nsga3 engine(problem, cfg);
  const auto result = engine.run(1);
  EXPECT_FALSE(result.archive.empty());
  EXPECT_LE(result.archive.size(), 50u);
  // Archive members are mutually non-dominated.
  for (const Individual& a : result.archive) {
    for (const Individual& b : result.archive) {
      if (&a != &b) {
        EXPECT_FALSE(constrained_dominates(a, b) &&
                     constrained_dominates(b, a));
      }
    }
  }
  // Per-axis elitism: the archive's minimum on every objective is at
  // least as good as the final front's (axis-boundary members carry
  // infinite crowding, so capacity eviction can never remove them).
  auto axis_min = [](const Population& pop, std::size_t axis) {
    double v = std::numeric_limits<double>::infinity();
    for (const Individual& i : pop) {
      v = std::min(v, i.objectives[axis]);
    }
    return v;
  };
  // The archive is feasibility-first, so compare against the feasible
  // subset of the final front only.
  Population feasible_front;
  for (const Individual& i : result.front) {
    if (i.violations == 0) {
      feasible_front.push_back(i);
    }
  }
  if (!feasible_front.empty()) {
    for (std::size_t axis = 0; axis < 3; ++axis) {
      EXPECT_LE(axis_min(result.archive, axis),
                axis_min(feasible_front, axis) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace iaas
