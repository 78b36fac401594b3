// Writes the golden trace fixtures checked by tests/test_trace_golden.cpp
// and the trace_golden_roundtrip ctest, or replays them:
//
//   trace_fixtures <dir> [fixture ...]
//   trace_fixtures --check <dir>
//
// The committed set lives in tests/data/traces.  Writing regenerates the
// named fixtures (a sim fixture's name, or run_trace), or every one when
// none is named.  The sim fixtures record wall-clock solve times, so
// rewriting a fixture whose history did not move still changes its bytes:
// re-pin only the fixtures that moved, and all of them only for a format
// change.
//
// --check rebuilds every sim fixture in memory and exits 1 unless each
// one's deterministic_fingerprint equals that of the committed
// <dir>/<name>.json.  It pins the simulators' behaviour (ctest
// trace_fixtures_replay); test_trace_golden pins the files themselves.
//
// Between them the fixtures carry every optional window block both
// present and absent (fault events with servers, providers, admission,
// shard, fairness, nested allocator trace), windows degraded to
// best_effort and to fallback, cross-cloud redirects, a dark provider,
// permanent rejections, a run trace whose seed is above 2^53, and the
// binary (.trc) twin of every file.  cp and nsga3_cp pin the histories
// of the two constraint-programming allocators.  all_blocks.json is
// assembled by hand: its first window has every block present with edge
// values (negative zero, 17-digit mantissas, counters past 2^53, the
// largest 32-bit server id), its second has every block absent.
//
// The fixtures pin the trace formats: regenerate them only when a change
// alters the bytes on purpose, and then bump kBinaryTraceVersion if the
// binary layout moved and update the fingerprints pinned in the test.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algo/cp_allocator.h"
#include "algo/heuristics.h"
#include "algo/nsga_allocators.h"
#include "algo/registry.h"
#include "algo/sharded_allocator.h"
#include "broker/multicloud_sim.h"
#include "io/json.h"
#include "io/trace_binary.h"
#include "io/trace_json.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"

namespace {

using namespace iaas;

EaAllocatorOptions tiny_ea(bool trace) {
  EaAllocatorOptions options;
  options.nsga.population_size = 8;
  options.nsga.max_evaluations = 48;
  options.nsga.reference_divisions = 3;
  options.nsga.threads = 1;
  options.nsga.collect_trace = trace;
  return options;
}

// Rack outage with repair, a decommission, retries, and a 1 ns budget
// that truncates the EA every window (best_effort); nested traces on.
std::vector<WindowMetrics> faulted() {
  SimConfig cfg;
  cfg.windows = 4;
  cfg.arrivals_per_window_mean = 8.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.faults.scripted = {{1, /*leaf_level=*/true, 0, /*mttr_windows=*/2,
                          false},
                         {2, false, 9, 1, /*decommission=*/true}};
  cfg.retry.max_attempts = 3;
  cfg.allocator_deadline_seconds = 1e-9;
  CloudSimulator sim(cfg, std::make_unique<Nsga3Allocator>(tiny_ea(true)));
  return sim.run(29);
}

// Random server failures and a hard deadline every solve blows: the
// greedy fallback serves each window.
std::vector<WindowMetrics> fallback() {
  SimConfig cfg;
  cfg.windows = 3;
  cfg.arrivals_per_window_mean = 6.0;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.faults.server_failure_probability = 0.2;
  cfg.faults.mttr_min_windows = 1;
  cfg.faults.mttr_max_windows = 2;
  cfg.allocator_deadline_seconds = 1e-9;
  cfg.deadline_hard_factor = 1.0;
  CloudSimulator sim(cfg,
                     std::make_unique<Nsga3TabuAllocator>(tiny_ea(false)));
  return sim.run(5);
}

// Admission queue with shedding: the admission block comes and goes.
std::vector<WindowMetrics> admission() {
  SimConfig cfg;
  cfg.windows = 5;
  cfg.arrival_schedule = {14, 0, 4};
  cfg.departure_probability = 0.2;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.scenario.vms = 0;
  cfg.max_admissions_per_window = 8;
  cfg.admission_queue_limit = 12;
  cfg.retry.max_attempts = 2;
  CloudSimulator sim(cfg, std::make_unique<FirstFitDecreasingAllocator>());
  return sim.run(7);
}

// Two shards serving strategic consumers: shard and fairness blocks.
std::vector<WindowMetrics> sharded_strategic() {
  SimConfig cfg;
  cfg.windows = 3;
  cfg.arrivals_per_window_mean = 8.0;
  cfg.departure_probability = 0.15;
  cfg.scenario = ScenarioConfig::paper_scale(32, 2);
  cfg.scenario.vms = 0;
  cfg.scenario.consumers = 5;
  cfg.scenario.strategic.strategic_fraction = 0.5;
  cfg.scenario.strategic.profiles = default_strategy_profiles();
  ShardedAllocatorOptions options;
  options.shard_count = 2;
  options.threads = 1;
  options.suite.ea = tiny_ea(false);
  CloudSimulator sim(cfg, std::make_unique<ShardedAllocator>(options));
  return sim.run(11);
}

// Two-provider market: per-provider rows.
std::vector<WindowMetrics> brokered() {
  ScenarioConfig tiny;
  tiny.datacenters = 1;
  tiny.total_servers = 16;
  tiny.servers_per_leaf = 8;
  tiny.vms = 0;
  ProviderConfig alpha;
  alpha.id = "alpha";
  alpha.scenario = tiny;
  ProviderConfig beta;
  beta.id = "beta";
  beta.scenario = tiny;
  beta.pricing.billing = BillingModel::kReserved;
  beta.pricing.reserved_multiplier = 0.6;
  MultiCloudSimConfig cfg;
  cfg.windows = 4;
  cfg.arrival_schedule = {8, 6, 4};
  cfg.retry.max_attempts = 3;
  cfg.market.providers = {alpha, beta};
  cfg.request_shape = tiny;
  MultiCloudSimulator sim(cfg);
  return sim.run(13);
}

// Three-provider market-aware run on 1-thread NSGA-III+tabu backends
// carrying warm-start fronts.  beta (the cheapest) goes dark for two
// windows, so its fleet re-enters through routing on gamma; a price
// shock then makes reshop move beta's group-free VMs off, and beta goes
// dark again while empty but still carrying its front; gamma loses a
// rack while hosting VMs and later decommissions, and with one redirect
// allowed, its orphans that already moved once are permanently
// rejected.
std::vector<WindowMetrics> market() {
  ScenarioConfig tiny;
  tiny.datacenters = 1;
  tiny.total_servers = 16;
  tiny.servers_per_leaf = 8;
  tiny.vms = 0;
  ProviderConfig alpha;
  alpha.id = "alpha";
  alpha.scenario = tiny;
  ProviderConfig beta;
  beta.id = "beta";
  beta.scenario = tiny;
  beta.pricing.billing = BillingModel::kReserved;
  beta.pricing.reserved_multiplier = 0.6;
  beta.pricing.shocks = {{/*window=*/4, /*duration=*/2, /*factor=*/3.0}};
  ProviderConfig gamma;
  gamma.id = "gamma";
  gamma.scenario = tiny;
  gamma.pricing.on_demand_multiplier = 0.8;
  gamma.faults.scripted = {{3, /*leaf_level=*/true, 0, /*mttr_windows=*/1,
                            false}};
  MultiCloudSimConfig cfg;
  cfg.windows = 8;
  cfg.arrival_schedule = {10, 8, 6, 4};
  cfg.retry.max_attempts = 4;
  cfg.retry.backoff_cap_windows = 1;
  cfg.market.providers = {alpha, beta, gamma};
  cfg.market.outages = {{/*window=*/1, /*provider=*/1, /*duration=*/2, false},
                        {5, 1, 1, false},
                        {6, 2, 1, /*decommission=*/true}};
  cfg.broker.mode = BrokerMode::kMarketAware;
  cfg.broker.backend = AlgorithmId::kNsga3Tabu;
  cfg.broker.suite.ea = tiny_ea(false);
  cfg.broker.max_redirects = 1;
  cfg.request_shape = tiny;
  cfg.warm_start_front = true;
  MultiCloudSimulator sim(cfg);
  return sim.run(19);
}

// 16 servers, relationship groups on 60% of the arrivals, and one of the
// two leaves down in window 2: the first two windows fit, the last two
// do not.  Shared by the two CP fixtures.
SimConfig constrained_fleet() {
  SimConfig cfg;
  cfg.windows = 4;
  cfg.arrivals_per_window_mean = 36.0;
  cfg.departure_probability = 0.05;
  cfg.scenario = ScenarioConfig::paper_scale(16);
  cfg.scenario.constrained_fraction = 0.6;
  cfg.faults.scripted = {{2, /*leaf_level=*/true, 0, /*mttr_windows=*/1,
                          false}};
  cfg.retry.max_attempts = 2;
  return cfg;
}

// The CP baseline cut by a backtrack budget, never by the wall clock
// (as fig_fairness runs it), so the history does not depend on host
// speed.  It deploys its incumbent while the fleet fits, and the greedy
// fallback's rejections once it does not.
std::vector<WindowMetrics> cp() {
  CpSolverOptions options;
  options.time_limit_seconds = 1e9;
  options.max_backtracks = 64;
  CloudSimulator sim(constrained_fleet(),
                     std::make_unique<CpAllocator>(options));
  return sim.run(23);
}

// NSGA-III with the constraint-solver repair, whose searches both
// succeed and fail (budget spent, tree exhausted), in the loop and in
// the deep final pass.
std::vector<WindowMetrics> nsga3_cp() {
  CloudSimulator sim(constrained_fleet(),
                     std::make_unique<Nsga3CpAllocator>(tiny_ea(false)));
  return sim.run(31);
}

telemetry::RunTrace huge_seed_trace() {
  telemetry::RunTrace trace;
  trace.label = "huge \"seed\"";
  trace.seed = (std::uint64_t{1} << 63) + 12345;
  telemetry::GenerationRow row;
  row.generation = 0;
  row.evaluations = (std::uint64_t{1} << 53) + 7;
  row.full_rebuilds = 3;
  row.front_size = 2;
  row.best_objectives = {0.1, -0.0, 1e300};
  row.seconds_evaluate = 0.25;
  trace.rows.push_back(row);
  return trace;
}

// Every field distinct and every block present, then every block absent.
std::vector<WindowMetrics> all_blocks() {
  constexpr std::size_t kBig = (std::size_t{1} << 53) + 1;
  WindowMetrics w;
  w.window = 7;
  w.arrived = 11;
  w.departed = 2;
  w.running = 23;
  w.rejected = 3;
  w.boots = 4;
  w.migrations = 5;
  w.migration_cost = 0.1;
  w.failed_servers = 6;
  w.repaired_servers = 1;
  w.decommissioned_servers = 2;
  w.displaced_vms = 8;
  w.vms_on_down_servers = 0;
  w.fault_events = {
      {7, FaultEventKind::kLeafFailure, 3,
       {std::numeric_limits<std::uint32_t>::max(), 0, 17}, 4},
      {7, FaultEventKind::kDecommission, 12, {12}, 0}};
  w.evicted = 9;
  w.retried = 10;
  w.permanently_rejected = 1;
  w.retry_queue_depth = kBig;
  ProviderWindowMetrics p;
  p.provider = 1;
  p.online = false;
  p.price_multiplier = 1.75;
  p.running = 12;
  p.routed = 13;
  p.rejected = 14;
  p.evicted = 15;
  p.redirects_in = 16;
  p.failed_servers = 17;
  p.migrations = 18;
  p.migration_cost = -0.0;
  p.objectives = {2.5, 0.3, 1e-7};
  w.providers = {p};
  p.provider = 0;
  p.online = true;
  w.providers.push_back(p);
  w.redirects = 19;
  w.offline_providers = 1;
  w.cross_cloud_migration_cost = 3.25;
  w.admitted = 20;
  w.admission_deferred = 21;
  w.admission_dropped = 22;
  w.admission_queue_depth = 24;
  w.shard = {2, 25, 26, 27, 28, 29};
  w.fairness.consumers = 30;
  w.fairness.strategic_consumers = 31;
  w.fairness.strategic_vms = 32;
  w.fairness.jain_index = 0.875;
  w.fairness.long_term_jain = 0.9;
  w.fairness.envy = 0.0625;
  w.fairness.utilization_efficiency = 0.7;
  w.fairness.honest_welfare = 0.95;
  w.fairness.strategic_welfare = 1.05;
  w.fairness.energy_cost = 123.456;
  w.degrade = DegradeLevel::kFallback;
  w.fallback_algorithm = "FFD \\ fallback";
  w.objectives = {10.5, 0.0, 4.0 / 3.0};
  w.solve_seconds = 0.0123;
  w.allocator_trace = huge_seed_trace();
  WindowMetrics empty;
  empty.window = 8;
  return {w, empty};
}

struct SimFixture {
  const char* name;
  std::vector<WindowMetrics> (*build)();
};

constexpr SimFixture kSimFixtures[] = {
    {"all_blocks", all_blocks},
    {"faulted", faulted},
    {"fallback", fallback},
    {"admission", admission},
    {"sharded_strategic", sharded_strategic},
    {"brokered", brokered},
    {"market", market},
    {"cp", cp},
    {"nsga3_cp", nsga3_cp},
};

std::uint64_t committed_fingerprint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return 0;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return deterministic_fingerprint(
      sim_trace_from_json(Json::parse(text.str())));
}

int check(const std::string& dir) {
  int mismatches = 0;
  for (const SimFixture& fixture : kSimFixtures) {
    const std::uint64_t built = deterministic_fingerprint(fixture.build());
    const std::uint64_t committed =
        committed_fingerprint(dir + "/" + fixture.name + ".json");
    std::printf("%s: rebuilt %016llx committed %016llx %s\n", fixture.name,
                static_cast<unsigned long long>(built),
                static_cast<unsigned long long>(committed),
                built == committed ? "ok" : "MISMATCH");
    mismatches += built == committed ? 0 : 1;
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

constexpr const char* kRunTrace = "run_trace";

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--check") {
    return check(argv[2]);
  }
  if (argc < 2 || std::string(argv[1]).starts_with("--")) {
    std::fprintf(stderr,
                 "usage: trace_fixtures <dir> [fixture ...]\n"
                 "       trace_fixtures --check <dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  const std::vector<std::string> named(argv + 2, argv + argc);
  for (const std::string& name : named) {
    const bool known =
        name == kRunTrace ||
        std::any_of(std::begin(kSimFixtures), std::end(kSimFixtures),
                    [&](const SimFixture& f) { return name == f.name; });
    if (!known) {
      std::fprintf(stderr, "trace_fixtures: no fixture named %s\n",
                   name.c_str());
      return 2;
    }
  }
  const auto wanted = [&](const std::string& name) {
    return named.empty() ||
           std::find(named.begin(), named.end(), name) != named.end();
  };
  for (const SimFixture& fixture : kSimFixtures) {
    if (!wanted(fixture.name)) {
      continue;
    }
    const std::vector<WindowMetrics> rows = fixture.build();
    const std::string stem = dir + "/" + fixture.name;
    write_sim_trace_json(rows, stem + ".json");
    write_binary_sim_trace(rows, stem + ".trc");
    std::printf("%s: %zu windows, deterministic_fingerprint=%016llx\n",
                fixture.name, rows.size(),
                static_cast<unsigned long long>(
                    deterministic_fingerprint(rows)));
  }
  if (wanted(kRunTrace)) {
    write_trace_json(huge_seed_trace(), dir + "/run_trace.json");
    write_binary_run_trace(huge_seed_trace(), dir + "/run_trace.trc");
  }
  return 0;
}
