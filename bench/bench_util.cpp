#include "bench/bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"
#include "workload/generator.h"

namespace iaas::bench {

SuiteOptions paper_suite() {
  SuiteOptions suite;  // NsgaConfig already carries Table III defaults
  suite.ea.nsga.threads = 0;  // shared pool: parallel fitness evaluation
  suite.cp.time_limit_seconds = 10.0;
  suite.cp.max_backtracks = 200000;
  return suite;
}

SweepConfig apply_env(SweepConfig config) {
  if (const char* runs = std::getenv("IAAS_BENCH_RUNS")) {
    config.runs = static_cast<std::size_t>(std::strtoul(runs, nullptr, 10));
    if (config.runs == 0) {
      config.runs = 1;
    }
  }
  if (std::getenv("IAAS_BENCH_FAST") != nullptr) {
    if (config.server_sizes.size() > 2) {
      config.server_sizes.resize(2);
    }
    config.runs = 1;
    config.suite.ea.nsga.max_evaluations =
        std::min<std::size_t>(config.suite.ea.nsga.max_evaluations, 2000);
    config.per_run_cap_seconds =
        std::min(config.per_run_cap_seconds, 5.0);
  }
  if (const char* sizes = std::getenv("IAAS_BENCH_SIZES")) {
    std::vector<std::uint32_t> parsed;
    const char* p = sizes;
    while (*p != '\0') {
      char* end = nullptr;
      const unsigned long v = std::strtoul(p, &end, 10);
      if (end == p) {
        break;  // no digits left; ignore the rest
      }
      if (v > 0) {
        parsed.push_back(static_cast<std::uint32_t>(v));
      }
      p = *end == ',' ? end + 1 : end;
    }
    if (!parsed.empty()) {
      config.server_sizes = std::move(parsed);
    }
  }
  return config;
}

std::string csv_dir() {
  if (const char* dir = std::getenv("IAAS_BENCH_CSV_DIR")) {
    return dir;
  }
  return ".";
}

SweepResult run_sweep(const SweepConfig& config) {
  SweepResult result;
  result.config = config;
  const std::vector<AlgorithmId>& algorithms =
      config.algorithms.empty() ? all_algorithms() : config.algorithms;

  for (AlgorithmId id : algorithms) {
    bool capped = false;
    for (std::uint32_t servers : config.server_sizes) {
      CellStats cell;
      if (capped) {
        cell.capped = true;
        result.cells[id][servers] = cell;
        continue;
      }
      RunningStats time_stats;
      RunningStats rejection_stats;
      RunningStats violation_stats;
      RunningStats usage_stats;
      RunningStats downtime_stats;
      RunningStats migration_stats;
      RunningStats per_vm_stats;

      ScenarioConfig scenario = ScenarioConfig::paper_scale(servers);
      scenario.constrained_fraction = config.constrained_fraction;
      const ScenarioGenerator generator(scenario);

      for (std::size_t run = 0; run < config.runs; ++run) {
        const std::uint64_t seed =
            config.base_seed + run * 7919 + servers;
        const Instance instance = generator.generate(seed);
        auto allocator = make_allocator(id, config.suite);
        const AllocationResult r = allocator->allocate(instance, seed ^ 0x5eedULL);
        time_stats.add(r.wall_seconds);
        rejection_stats.add(r.rejection_rate());
        violation_stats.add(static_cast<double>(r.raw_violations.total()));
        usage_stats.add(r.objectives.usage_cost);
        downtime_stats.add(r.objectives.downtime_cost);
        migration_stats.add(r.objectives.migration_cost);
        const std::size_t accepted = r.vm_count - r.rejected;
        per_vm_stats.add(accepted == 0 ? 0.0
                                       : r.objectives.usage_cost /
                                             static_cast<double>(accepted));
      }
      cell.mean_seconds = time_stats.mean();
      cell.stddev_seconds = time_stats.stddev();
      cell.mean_rejection_rate = rejection_stats.mean();
      cell.mean_violations = violation_stats.mean();
      cell.mean_usage_cost = usage_stats.mean();
      cell.mean_downtime_cost = downtime_stats.mean();
      cell.mean_migration_cost = migration_stats.mean();
      cell.mean_cost_per_accepted = per_vm_stats.mean();
      cell.runs = config.runs;
      result.cells[id][servers] = cell;

      if (cell.mean_seconds > config.per_run_cap_seconds) {
        capped = true;  // skip larger sizes for this algorithm
      }
      std::fprintf(stderr, "  [%s @ %u servers] %.3fs mean\n",
                   algorithm_name(id).c_str(), servers, cell.mean_seconds);
    }
  }
  return result;
}

void print_metric_table(const SweepResult& result, const std::string& title,
                        double CellStats::*metric, int precision,
                        const std::string& csv_path) {
  std::printf("\n%s\n", title.c_str());
  std::printf("(mean over %zu runs; seeds from %llu)\n", result.config.runs,
              static_cast<unsigned long long>(result.config.base_seed));

  std::vector<std::string> header = {"algorithm"};
  for (std::uint32_t s : result.config.server_sizes) {
    header.push_back(std::to_string(s) + " srv / " + std::to_string(2 * s) +
                     " VMs");
  }
  TextTable table(header);
  CsvWriter csv(csv_path, {"algorithm", "servers", "vms", "value"});

  const std::vector<AlgorithmId>& algorithms =
      result.config.algorithms.empty() ? all_algorithms()
                                       : result.config.algorithms;
  for (AlgorithmId id : algorithms) {
    std::vector<std::string> row = {algorithm_name(id)};
    for (std::uint32_t s : result.config.server_sizes) {
      const CellStats& cell = result.cells.at(id).at(s);
      if (cell.capped) {
        row.push_back("> " + TextTable::num(
                                 result.config.per_run_cap_seconds, 0) +
                      "s cap");
      } else {
        const double v = cell.*metric;
        row.push_back(TextTable::num(v, precision));
        csv.add_row({algorithm_name(id), std::to_string(s),
                     std::to_string(2 * s), TextTable::num(v, 6)});
      }
    }
    table.add_row(std::move(row));
  }
  table.print();
  std::printf("CSV: %s\n", csv_path.c_str());
}

void print_nsga_settings(const NsgaConfig& config) {
  TextTable table({"parameter", "value"});
  table.add_row({"populationSize", std::to_string(config.population_size)});
  table.add_row({"Number of evaluations",
                 std::to_string(config.max_evaluations)});
  table.add_row({"sbx.rate", TextTable::num(kSbxRate, 2)});
  table.add_row({"sbx.distributionIndex",
                 TextTable::num(kSbxDistributionIndex, 2)});
  table.add_row({"pm.rate", TextTable::num(kPmRate, 2)});
  table.add_row({"pm.distributionIndex",
                 TextTable::num(kPmDistributionIndex, 2)});
  std::printf("NSGA-II/III settings (paper Table III):\n");
  table.print();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace iaas::bench
