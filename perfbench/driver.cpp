// Benchmark driver for the allocator and the cyclic window loop.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --scratch <dir>
//
// A workload is a steady-state CloudSimulator horizon: a fleet, an
// arrival process and an allocator.  A run draws kInstances horizon
// seeds from --seed and replays the horizons in order until --seconds
// have elapsed (at least kMinReplays times each).  Timings are the
// process's CPU time (the loop and allocators run on one thread), so
// time a shared host gives to other tenants is not charged to the
// program; each window's timing is then the fastest of its replays,
// which drops cache and frequency dips.  The first `warmup` windows of a
// horizon fill the platform and count as set-up; every timing comes from
// the windows after them.  Every replay must reproduce its instance's
// deterministic fingerprint, every allocation is audited for
// feasibility, and the window ledgers must balance; any failure clears
// "correct".
//
// --trace 0 reports the end-to-end metrics.  --trace 1 reports the
// per-layer ones: the allocator's per-generation trace is switched on,
// every window is streamed through the JSON and binary trace writers,
// and single layer calls (delta move, rebase, rebuild, repair walk,
// fairness pass) are timed on an instance of the workload's shape.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// attempted counts the VM requests that arrived in measured windows;
// failed counts those refused for good (retry budget spent).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/registry.h"
#include "algo/sharded_allocator.h"
#include "common/rng.h"
#include "io/trace_binary.h"
#include "io/trace_stream.h"
#include "model/constraint_checker.h"
#include "model/fairness.h"
#include "model/placement_state.h"
#include "sim/simulator.h"
#include "tabu/repair.h"
#include "workload/generator.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// CPU seconds used by the whole process so far: every thread's work, but
// not the time the host ran someone else.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct Workload {
  const char* name;
  std::uint32_t servers;
  std::uint32_t datacenters;
  std::size_t arrivals;  // mean VM arrivals per window
  double departure;      // per running VM per window
  bool sharded;    // per-datacenter ShardedAllocator instead of one EA
  bool strategic;  // 16 tenants, a quarter of them misreporting demand
  std::size_t warmup;    // windows that fill the platform (set-up)
  std::size_t measured;  // windows timed after the warm-up
};

// Why each workload exists (each bypasses the other's mechanism; both run
// the paper's NSGA-III + tabu search, and neither queues or faults):
//   sharded    the fleet split per datacenter, honest consumers: shard
//              routing, merge and cross-shard rebalance in every window.
//   strategic  one EA over the whole fleet, tenants with inflated demand:
//              the fairness/energy pass runs every window and repair
//              sees padded groups.
constexpr Workload kWorkloads[] = {
    {"sharded", 128, 4, 32, 0.15, true, false, 12, 30},
    {"strategic", 128, 2, 32, 0.15, false, true, 12, 30},
};

// Distinct instances (horizon seeds) per run, and the fewest runs of
// each; timings keep every window's fastest replay (keep_fastest).
constexpr std::size_t kInstances = 8;
constexpr std::size_t kMinReplays = 2;

iaas::SimConfig make_sim_config(const Workload& w) {
  iaas::SimConfig sim;
  sim.windows = w.warmup + w.measured;
  sim.arrivals_per_window_mean = static_cast<double>(w.arrivals);
  sim.departure_probability = w.departure;
  // A rejected VM retries with short backoff until it lands, so the
  // workloads refuse nothing for good.
  sim.retry.max_attempts = 16;
  sim.retry.backoff_base_windows = 1;
  sim.retry.backoff_cap_windows = 2;
  sim.warm_start_front = true;
  sim.scenario = iaas::ScenarioConfig::paper_scale(w.servers, w.datacenters);
  sim.scenario.vms = 0;  // the simulator generates arrivals itself
  if (w.strategic) {
    sim.scenario.consumers = 16;
    sim.scenario.strategic.strategic_fraction = 0.25;
    sim.scenario.strategic.profiles = iaas::default_strategy_profiles();
  }
  return sim;
}

iaas::SuiteOptions make_suite(bool trace) {
  iaas::SuiteOptions suite;
  // Steady-state weight: the warm start carries the incumbent, so each
  // window runs a short search.  One thread per EA run keeps the
  // figures independent of the host's core count.
  suite.ea.nsga.population_size = 24;
  suite.ea.nsga.max_evaluations = 960;
  suite.ea.nsga.reference_divisions = 4;
  suite.ea.nsga.threads = 1;
  suite.ea.nsga.collect_trace = trace;
  return suite;
}

std::unique_ptr<iaas::Allocator> make_allocator(const Workload& w,
                                                bool trace) {
  if (w.sharded) {
    iaas::ShardedAllocatorOptions options;
    options.shard_count = 0;  // one shard per datacenter
    options.suite = make_suite(trace);
    options.threads = 1;  // shards run in turn, like the single EA
    return std::make_unique<iaas::ShardedAllocator>(options);
  }
  return iaas::make_allocator(iaas::AlgorithmId::kNsga3Tabu,
                              make_suite(trace));
}

// Forwards to the allocator under test and audits every answer it hands
// the window loop: the placement must cover the instance, be feasible,
// and agree with the reported rejection count.  The allocator's CPU time
// and the audit's are kept apart so the window timings can leave the
// audit out.
class AuditingAllocator final : public iaas::Allocator {
 public:
  explicit AuditingAllocator(std::unique_ptr<iaas::Allocator> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  iaas::AllocationResult allocate(const iaas::Instance& instance,
                                  std::uint64_t seed) override {
    const double start = cpu_seconds();
    iaas::AllocationResult result = inner_->allocate(instance, seed);
    const double allocated = cpu_seconds();
    audit(instance, result);
    alloc_seconds_ += allocated - start;
    audit_seconds_ += cpu_seconds() - allocated;
    return result;
  }

  void set_time_budget(double seconds) override {
    inner_->set_time_budget(seconds);
  }

  bool seed_next_run(std::vector<std::vector<std::int32_t>> front) override {
    return inner_->seed_next_run(std::move(front));
  }

  // Allocator and audit CPU time accumulated since the last call.
  double take_alloc_seconds() { return std::exchange(alloc_seconds_, 0.0); }
  double take_audit_seconds() { return std::exchange(audit_seconds_, 0.0); }

  [[nodiscard]] const std::string& failure() const { return failure_; }

 private:
  void audit(const iaas::Instance& instance,
             const iaas::AllocationResult& result) {
    if (!failure_.empty()) {
      return;
    }
    if (result.placement.vm_count() != instance.n()) {
      failure_ = "placement does not cover the instance";
      return;
    }
    const iaas::ViolationReport report =
        iaas::ConstraintChecker(instance).check(result.placement);
    if (!report.feasible()) {
      failure_ = "allocator returned an infeasible placement";
    } else if (report.rejected_vms != result.rejected) {
      failure_ = "reported rejections disagree with the placement";
    }
  }

  std::unique_ptr<iaas::Allocator> inner_;
  double alloc_seconds_ = 0.0;
  double audit_seconds_ = 0.0;
  std::string failure_;
};

struct Horizon {
  std::vector<iaas::WindowMetrics> rows;
  // CPU seconds per window.
  std::vector<double> window_s;  // whole window; audit and sink excluded
  std::vector<double> alloc_s;   // allocator calls; audit excluded
  std::vector<double> emit_s;    // trace writers' append (trace mode)
  std::size_t trace_bytes = 0;
  std::uint64_t fingerprint = 0;
  std::string failure;
};

Horizon run_horizon(const Workload& w, std::uint64_t seed, bool trace,
                    const std::filesystem::path& scratch) {
  Horizon h;
  const double start = cpu_seconds();
  auto audited = std::make_unique<AuditingAllocator>(make_allocator(w, trace));
  AuditingAllocator& audit = *audited;
  iaas::CloudSimulator sim(make_sim_config(w), std::move(audited));
  std::unique_ptr<iaas::SimTraceWriter> json;
  std::unique_ptr<iaas::BinaryTraceWriter> binary;
  if (trace) {
    json = std::make_unique<iaas::SimTraceWriter>(
        (scratch / "trace.json").string());
    binary = std::make_unique<iaas::BinaryTraceWriter>(
        (scratch / "trace.trc").string());
  }
  double previous_exit = start;
  sim.set_window_sink([&](const iaas::WindowMetrics& row) {
    const double entry = cpu_seconds();
    h.window_s.push_back(entry - previous_exit - audit.take_audit_seconds());
    h.alloc_s.push_back(audit.take_alloc_seconds());
    if (json) {
      json->append(row);
      binary->append(row);
      h.emit_s.push_back(cpu_seconds() - entry);
    }
    previous_exit = cpu_seconds();
  });
  h.rows = sim.run(seed);
  if (json) {
    json->finish();
    binary->finish();
    h.trace_bytes = json->bytes_written() + binary->bytes_written();
  }
  h.fingerprint = iaas::deterministic_fingerprint(h.rows);
  h.failure = audit.failure();
  return h;
}

// Keeps, per window, the fastest of an instance's replays.  Replays do
// identical work (their fingerprints match), so the minimum drops time
// the host took away -- other tenants, frequency dips -- without hiding
// work the program does.
void keep_fastest(Horizon& best, const Horizon& replay) {
  const auto fold = [](std::vector<double>& into,
                       const std::vector<double>& from) {
    for (std::size_t t = 0; t < into.size() && t < from.size(); ++t) {
      into[t] = std::min(into[t], from[t]);
    }
  };
  fold(best.window_s, replay.window_s);
  fold(best.alloc_s, replay.alloc_s);
  fold(best.emit_s, replay.emit_s);
}

// Window ledgers that must balance (DESIGN.md §10/§12): the live
// population and the retry queue; and no degraded window (the workloads
// set no deadline).
std::string check_ledgers(const Workload& w, const Horizon& h) {
  if (h.rows.size() != w.warmup + w.measured ||
      h.window_s.size() != h.rows.size()) {
    return "horizon did not run every window";
  }
  long long running = 0;
  long long retry_depth = 0;
  for (const iaas::WindowMetrics& row : h.rows) {
    const auto entered = static_cast<long long>(row.arrived);
    const auto rejected = static_cast<long long>(row.rejected);
    const auto permanent = static_cast<long long>(row.permanently_rejected);
    const auto retried = static_cast<long long>(row.retried);
    if (running - static_cast<long long>(row.departed) + retried + entered -
            rejected !=
        static_cast<long long>(row.running)) {
      return "live population ledger does not balance";
    }
    if (permanent > rejected ||
        retry_depth - retried + rejected - permanent !=
            static_cast<long long>(row.retry_queue_depth)) {
      return "retry queue ledger does not balance";
    }
    if (row.degrade != iaas::DegradeLevel::kNone) {
      return "a window was served by the degradation chain";
    }
    if (w.strategic && row.running + row.rejected > 0 &&
        (row.fairness.consumers == 0 || !(row.fairness.jain_index > 0.0) ||
         row.fairness.jain_index > 1.0 + 1e-12)) {
      return "fairness columns missing or out of range";
    }
    running = static_cast<long long>(row.running);
    retry_depth = static_cast<long long>(row.retry_queue_depth);
  }
  return {};
}

// Linear-interpolation percentile (q in [0, 1]) of a copy of `values`.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

// --- single-layer probes (trace mode) ---------------------------------

// Median seconds of `reps` timed calls of fn(i).
template <typename Fn>
double median_seconds(std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    fn(i);
    samples.push_back(seconds_between(start, Clock::now()));
  }
  return percentile(std::move(samples), 0.5);
}

struct LayerProbe {
  double rebuild_us = 0.0;
  double delta_move_ns = 0.0;
  double rebase_us = 0.0;
  double repair_walk_us = 0.0;
  double fairness_pass_us = 0.0;
  double checksum = 0.0;  // keeps the probed results observable
};

// Times one call of each layer on an instance the size of the
// workload's steady live set, with a random (overloaded) placement so
// the repair walk has work to do.
LayerProbe probe_layers(const Workload& w, std::uint64_t seed) {
  iaas::ScenarioConfig scenario = make_sim_config(w).scenario;
  scenario.vms = static_cast<std::uint32_t>(
      static_cast<double>(w.arrivals) / w.departure);
  scenario.preplaced_fraction = 0.5;
  const iaas::Instance instance =
      iaas::ScenarioGenerator(scenario).generate(seed);
  const auto tables = std::make_shared<const iaas::StateTables>(instance);
  const std::size_t n = instance.n();
  const std::size_t m = instance.m();

  iaas::Rng rng(seed ^ 0x5eedULL);
  std::vector<std::int32_t> genes(n);
  for (std::int32_t& g : genes) {
    g = static_cast<std::int32_t>(rng.uniform_index(m));
  }
  std::vector<std::int32_t> sibling = genes;
  for (std::size_t f = 0; f < std::max<std::size_t>(1, n / 50); ++f) {
    sibling[rng.uniform_index(n)] =
        static_cast<std::int32_t>(rng.uniform_index(m));
  }
  const iaas::Placement placement(genes);

  LayerProbe probe;
  iaas::PlacementState state(instance, {}, iaas::StateTracking::kFull, tables);
  probe.rebuild_us = 1e6 * median_seconds(64, [&](std::size_t) {
                       state.rebuild(placement);
                       probe.checksum += state.aggregate();
                     });

  constexpr std::size_t kMovesPerBatch = 256;
  std::vector<std::size_t> move_vm(kMovesPerBatch);
  std::vector<std::int32_t> move_to(kMovesPerBatch);
  for (std::size_t i = 0; i < kMovesPerBatch; ++i) {
    move_vm[i] = rng.uniform_index(n);
    move_to[i] = static_cast<std::int32_t>(rng.uniform_index(m));
  }
  probe.delta_move_ns =
      1e9 / static_cast<double>(kMovesPerBatch) *
      median_seconds(64, [&](std::size_t) {
        for (std::size_t i = 0; i < kMovesPerBatch; ++i) {
          probe.checksum += state.try_move(move_vm[i], move_to[i])
                                .aggregate_delta;
        }
      });

  probe.rebase_us = 1e6 * median_seconds(64, [&](std::size_t i) {
                      probe.checksum += static_cast<double>(
                          state.rebase(i % 2 == 0 ? sibling : genes));
                    });

  const iaas::TabuRepair repair(instance, {}, tables);
  probe.repair_walk_us = 1e6 * median_seconds(32, [&](std::size_t i) {
                           std::vector<std::int32_t> walk = genes;
                           iaas::Rng walk_rng(seed + i);
                           probe.checksum += repair.repair(walk, walk_rng);
                         });

  probe.fairness_pass_us = 1e6 * median_seconds(32, [&](std::size_t) {
                             probe.checksum +=
                                 iaas::compute_fairness(instance, placement)
                                     .energy_cost;
                           });
  return probe;
}

// --- metric assembly ---------------------------------------------------

struct Totals {
  std::vector<double> window_ms;
  std::vector<double> alloc_ms;
  std::vector<double> outside_ms;
  std::vector<double> setup_s;
  double measured_s = 0.0;
  double alloc_s = 0.0;
  double emit_s = 0.0;
  std::size_t windows = 0;
  std::size_t arrived = 0;
  std::size_t refused = 0;
};

// Pools the measured windows of every instance; set-up is an instance's
// construction plus its warm-up windows.
Totals collect(const Workload& w, const std::vector<Horizon>& instances) {
  Totals t;
  for (const Horizon& h : instances) {
    t.setup_s.push_back(std::accumulate(
        h.window_s.begin(),
        h.window_s.begin() +
            static_cast<std::ptrdiff_t>(std::min(w.warmup, h.window_s.size())),
        0.0));
    for (std::size_t i = w.warmup; i < h.rows.size(); ++i) {
      t.window_ms.push_back(h.window_s[i] * 1e3);
      t.alloc_ms.push_back(h.alloc_s[i] * 1e3);
      t.outside_ms.push_back((h.window_s[i] - h.alloc_s[i]) * 1e3);
      t.measured_s += h.window_s[i];
      t.alloc_s += h.alloc_s[i];
      if (!h.emit_s.empty()) {
        t.emit_s += h.emit_s[i];
      }
      t.arrived += h.rows[i].arrived;
      t.refused += h.rows[i].permanently_rejected;
      ++t.windows;
    }
  }
  return t;
}

std::vector<Metric> end_to_end(const Workload& w, const Totals& t,
                               const std::vector<Horizon>& instances) {
  double placed = 0.0;
  double offered = 0.0;
  double cost = 0.0;
  for (const Horizon& h : instances) {
    const std::vector<iaas::WindowMetrics>& rows = h.rows;
    for (std::size_t i = w.warmup; i < rows.size(); ++i) {
      placed += static_cast<double>(rows[i].running);
      offered += static_cast<double>(rows[i].running + rows[i].rejected);
      cost += rows[i].objectives.aggregate();
    }
  }
  // Every arrival enters the allocation instance of its own window, so
  // the window's time is also the placement latency of its VMs.
  return {
      {"alloc_cpu_ms_p50", percentile(t.alloc_ms, 0.50), "ms"},
      {"alloc_cpu_ms_p90", percentile(t.alloc_ms, 0.90), "ms"},
      {"window_cpu_ms_p50", percentile(t.window_ms, 0.50), "ms"},
      {"window_cpu_ms_p90", percentile(t.window_ms, 0.90), "ms"},
      {"windows_per_cpu_s", static_cast<double>(t.windows) / t.measured_s,
       "1/s"},
      {"accept_pct", offered > 0.0 ? 100.0 * placed / offered : 0.0, "%"},
      {"cost_per_vm", placed > 0.0 ? cost / placed : 0.0, "cost"},
      {"setup_s", percentile(t.setup_s, 0.50), "s"},
  };
}

std::vector<Metric> per_layer(const Workload& w, const Totals& t,
                              const std::vector<Horizon>& horizons,
                              const LayerProbe& probe) {
  // EA generation columns, summed over measured windows of every replay.
  double generations = 0.0;
  double evaluations = 0.0;
  double delta_moves = 0.0;
  double rebuilds = 0.0;
  double rebases = 0.0;
  double repairs = 0.0;
  double repaired = 0.0;
  double unrepairable = 0.0;
  double tabu_tried = 0.0;
  double tournament_s = 0.0;
  double variation_s = 0.0;
  double repair_s = 0.0;
  double evaluate_s = 0.0;
  double selection_s = 0.0;
  double retried = 0.0;
  double evicted = 0.0;
  double migrations = 0.0;
  double shard_pre = 0.0;
  double shard_rebalanced = 0.0;
  double trace_bytes = 0.0;
  for (const Horizon& h : horizons) {
    trace_bytes += static_cast<double>(h.trace_bytes);
    for (std::size_t i = w.warmup; i < h.rows.size(); ++i) {
      const iaas::WindowMetrics& row = h.rows[i];
      retried += static_cast<double>(row.retried);
      evicted += static_cast<double>(row.evicted);
      migrations += static_cast<double>(row.migrations);
      shard_pre += static_cast<double>(row.shard.pre_rejections);
      shard_rebalanced += static_cast<double>(row.shard.rebalance_placements);
      for (const iaas::telemetry::GenerationRow& g :
           row.allocator_trace.rows) {
        generations += 1.0;
        evaluations += static_cast<double>(g.evaluations);
        delta_moves += static_cast<double>(g.delta_moves);
        rebuilds += static_cast<double>(g.full_rebuilds);
        rebases += static_cast<double>(g.rebases);
        repairs += static_cast<double>(g.repair_invocations);
        repaired += static_cast<double>(g.repaired);
        unrepairable += static_cast<double>(g.unrepairable);
        tabu_tried += static_cast<double>(g.tabu_moves_tried);
        tournament_s += g.seconds_tournament;
        variation_s += g.seconds_variation;
        repair_s += g.seconds_repair;
        evaluate_s += g.seconds_evaluate;
        selection_s += g.seconds_selection;
      }
    }
  }
  const double windows =
      static_cast<double>(std::max<std::size_t>(t.windows, 1));
  const auto per_window = [windows](double total) { return total / windows; };
  const auto all_windows =
      static_cast<double>(horizons.size() * (w.warmup + w.measured));
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  return {
      {"generations", per_window(generations), "count"},
      {"evaluations", per_window(evaluations), "count"},
      {"delta_moves", per_window(delta_moves), "count"},
      {"full_rebuilds", per_window(rebuilds), "count"},
      {"rebases", per_window(rebases), "count"},
      {"repair_invocations", per_window(repairs), "count"},
      {"repair_success", ratio(repaired, repaired + unrepairable), "ratio"},
      {"tabu_moves_tried", per_window(tabu_tried), "count"},
      {"tournament_ms", 1e3 * per_window(tournament_s), "ms"},
      {"variation_ms", 1e3 * per_window(variation_s), "ms"},
      {"repair_ms", 1e3 * per_window(repair_s), "ms"},
      {"evaluate_ms", 1e3 * per_window(evaluate_s), "ms"},
      {"selection_ms", 1e3 * per_window(selection_s), "ms"},
      {"alloc_share_pct", 100.0 * ratio(t.alloc_s, t.measured_s), "%"},
      {"outside_alloc_cpu_ms_p50", percentile(t.outside_ms, 0.50), "ms"},
      {"retried", per_window(retried), "count"},
      {"evicted", per_window(evicted), "count"},
      {"migrations", per_window(migrations), "count"},
      {"shard_pre_rejections", per_window(shard_pre), "count"},
      {"shard_rebalance_placements", per_window(shard_rebalanced), "count"},
      {"trace_emit_us", 1e6 * per_window(t.emit_s), "us"},
      {"trace_bytes", trace_bytes / all_windows, "B"},
      {"rebuild_us", probe.rebuild_us, "us"},
      {"delta_move_ns", probe.delta_move_ns, "ns"},
      {"rebase_us", probe.rebase_us, "us"},
      {"repair_walk_us", probe.repair_walk_us, "us"},
      {"fairness_pass_us", probe.fairness_pass_us, "us"},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      const std::string_view v = value;
      args.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace && (!args.trace || !args.scratch.empty());
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scratch <dir>]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const std::filesystem::path scratch = args.scratch;
  if (args.trace) {
    std::filesystem::create_directories(scratch);
  }

  // The run's instances: kInstances horizons with seeds drawn from
  // --seed, replayed in order -- at least kMinReplays times each, then
  // while time is left.  Pooling several instances keeps one unusual
  // fleet from setting a run's figures.
  iaas::Rng seeder(args.seed);
  std::vector<std::uint64_t> seeds(kInstances);
  for (std::uint64_t& seed : seeds) {
    seed = seeder.next_u64();
  }
  std::vector<Horizon> horizons;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (horizons.size() < kMinReplays * kInstances ||
         Clock::now() < deadline) {
    horizons.push_back(run_horizon(w, seeds[horizons.size() % kInstances],
                                   args.trace, scratch));
  }

  std::string failure;
  for (std::size_t i = 0; i < horizons.size(); ++i) {
    const Horizon& h = horizons[i];
    if (failure.empty() && !h.failure.empty()) {
      failure = h.failure;
    }
    if (failure.empty()) {
      failure = check_ledgers(w, h);
    }
    if (failure.empty() &&
        h.fingerprint != horizons[i % kInstances].fingerprint) {
      failure = "a replay of the same seed changed the fingerprint";
    }
  }
  std::vector<Horizon> instances(
      horizons.begin(),
      horizons.begin() + static_cast<std::ptrdiff_t>(kInstances));
  for (std::size_t i = kInstances; i < horizons.size(); ++i) {
    keep_fastest(instances[i % kInstances], horizons[i]);
  }
  const Totals totals = collect(w, instances);

  std::vector<Metric> metrics;
  if (args.trace) {
    const LayerProbe probe = probe_layers(w, args.seed);
    metrics = per_layer(w, totals, instances, probe);
    std::filesystem::remove(scratch / "trace.json");
    std::filesystem::remove(scratch / "trace.trc");
    std::fprintf(stderr, "probe checksum %.6g\n", probe.checksum);
  } else {
    metrics = end_to_end(w, totals, instances);
  }
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      failure = std::string("metric ") + metric.name + " is not finite";
    }
  }
  if (!failure.empty()) {
    std::fprintf(stderr, "incorrect: %s\n", failure.c_str());
  }
  std::fprintf(stderr, "%s: %zu replays, %zu measured windows, %.2f s\n",
               w.name, horizons.size(), totals.windows, totals.measured_s);

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failure.empty() ? "true" : "false", totals.arrived,
              totals.refused);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, value, metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}
