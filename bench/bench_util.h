// Shared harness for the figure-reproduction benches: runs the six
// algorithms of §IV over scenario-size sweeps, averages the four metrics
// (execution time, rejection rate, raw violations, provider cost) over
// repeated seeds, and renders tables/CSVs.
//
// Environment knobs (all optional):
//   IAAS_BENCH_RUNS  repetitions per (algorithm, size); default 3
//                    (the paper averages 100 runs on a Celeron NUC —
//                     crank this up for paper-grade averaging)
//   IAAS_BENCH_FAST  if set, shrink sweeps for smoke-testing
//   IAAS_BENCH_SIZES comma-separated server counts overriding the
//                    sweep's sizes (applied after FAST, so an explicit
//                    list always wins — e.g. "16" for the trace smoke)
//   IAAS_BENCH_CSV_DIR directory for CSV dumps; default "."
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "algo/registry.h"
#include "workload/scenario_config.h"

namespace iaas::bench {

struct SweepConfig {
  std::vector<std::uint32_t> server_sizes;  // VMs = 2x (paper scale)
  std::size_t runs = 3;
  std::uint64_t base_seed = 20170529;  // IPDPS'17 venue date
  // Per-run wall-clock cap: once an algorithm's mean time at some size
  // exceeds this, larger sizes are skipped and reported as "> cap" (the
  // Fig. 8 "does not scale" outcome without burning hours).
  double per_run_cap_seconds = 30.0;
  SuiteOptions suite;
  std::vector<AlgorithmId> algorithms;  // empty = all six
  double constrained_fraction = 0.30;
};

struct CellStats {
  double mean_seconds = 0.0;
  double stddev_seconds = 0.0;
  double mean_rejection_rate = 0.0;
  double mean_violations = 0.0;
  double mean_usage_cost = 0.0;
  double mean_downtime_cost = 0.0;
  double mean_migration_cost = 0.0;
  double mean_cost_per_accepted = 0.0;
  std::size_t runs = 0;
  bool capped = false;  // skipped because a smaller size exceeded the cap
};

struct SweepResult {
  // results[algorithm][size]
  std::map<AlgorithmId, std::map<std::uint32_t, CellStats>> cells;
  SweepConfig config;
};

// Applies IAAS_BENCH_RUNS / IAAS_BENCH_FAST to a sweep config.
SweepConfig apply_env(SweepConfig config);

// Table III defaults with parallel evaluation enabled.
SuiteOptions paper_suite();

SweepResult run_sweep(const SweepConfig& config);

// Rendering: one table per metric; CSV rows are
// algorithm,size,metric,value.
void print_metric_table(const SweepResult& result, const std::string& title,
                        double CellStats::*metric, int precision,
                        const std::string& csv_path);

std::string csv_dir();

// CPU seconds the calling thread has run: times a serial (threads = 1)
// run without the share of a shared host that other processes take.
double thread_cpu_seconds();

// Prints the paper's Table III parameter block for the given config.
void print_nsga_settings(const NsgaConfig& config);

}  // namespace iaas::bench
