// Grand comparison: the paper's six algorithms plus this library's three
// extended baselines, side by side on every §IV metric at one mid-size
// scenario — the one-stop summary table.
//
// Also the telemetry showcase: every EA run collects a per-generation
// RunTrace; run 0 of each algorithm is written to
//   <csv_dir>/trace_<algorithm>.{json,csv}
// (IAAS_BENCH_FAST shrinks the scenario to 16 servers so the CTest
// trace smoke stays cheap).
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bench/bench_util.h"
#include "common/csv.h"
#include "common/expect.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/telemetry.h"
#include "io/trace_json.h"
#include "io/trace_stream.h"
#include "workload/generator.h"

namespace {

std::string file_stem(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-') {
      c = '_';
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace iaas;
  using iaas::bench::apply_env;
  using iaas::bench::csv_dir;
  using iaas::bench::paper_suite;

  std::printf("=== Grand comparison: all nine allocators ===\n");
  iaas::bench::SweepConfig env_probe;
  env_probe.runs = 3;
  env_probe.suite = paper_suite();
  env_probe = apply_env(env_probe);
  const std::size_t runs = env_probe.runs;
  const bool fast = std::getenv("IAAS_BENCH_FAST") != nullptr;
  const std::uint32_t servers = fast ? 16u : 64u;

  ScenarioConfig scenario = ScenarioConfig::paper_scale(servers);
  scenario.preplaced_fraction = 0.3;  // migrations in play
  const ScenarioGenerator generator(scenario);
  SuiteOptions suite = env_probe.suite;
  suite.ea.nsga.collect_trace = true;

  std::vector<AlgorithmId> algorithms = all_algorithms();
  for (AlgorithmId id : extended_algorithms()) {
    algorithms.push_back(id);
  }

  TextTable table({"algorithm", "time (s)", "rejection", "violations",
                   "usage+opex", "downtime", "migration", "total"});
  CsvWriter csv(csv_dir() + "/grand_comparison.csv",
                {"algorithm", "seconds", "rejection_rate", "violations",
                 "usage_opex", "downtime", "migration", "total"});

  for (AlgorithmId id : algorithms) {
    RunningStats time_s, rej, viol, usage, down, mig;
    for (std::size_t run = 0; run < runs; ++run) {
      const Instance inst = generator.generate(1100 + run);
      const AllocationResult r =
          make_allocator(id, suite)->allocate(inst, 13 + run);
      time_s.add(r.wall_seconds);
      rej.add(r.rejection_rate());
      viol.add(static_cast<double>(r.raw_violations.total()));
      usage.add(r.objectives.usage_cost);
      down.add(r.objectives.downtime_cost);
      mig.add(r.objectives.migration_cost);
      if (run == 0 && !r.trace.empty()) {
        const std::string stem =
            csv_dir() + "/trace_" + file_stem(algorithm_name(id));
        write_trace_json(r.trace, stem + ".json");
        r.trace.write_csv(stem + ".csv");
        std::printf("trace: %s.{json,csv} (%zu generations)\n",
                    stem.c_str(), r.trace.rows.size());
      }
    }
    const double total = usage.mean() + down.mean() + mig.mean();
    table.add_row({algorithm_name(id), TextTable::num(time_s.mean(), 3),
                   TextTable::num(rej.mean(), 3),
                   TextTable::num(viol.mean(), 1),
                   TextTable::num(usage.mean(), 1),
                   TextTable::num(down.mean(), 1),
                   TextTable::num(mig.mean(), 1),
                   TextTable::num(total, 1)});
    csv.add_row({algorithm_name(id), TextTable::num(time_s.mean(), 6),
                 TextTable::num(rej.mean(), 6),
                 TextTable::num(viol.mean(), 2),
                 TextTable::num(usage.mean(), 4),
                 TextTable::num(down.mean(), 4),
                 TextTable::num(mig.mean(), 4), TextTable::num(total, 4)});
  }
  std::printf("\n%u servers / %u VMs, 30%% preplaced, %zu runs each:\n",
              servers, 2 * servers, runs);
  table.print();
  std::printf("CSV: %s/grand_comparison.csv\n", csv_dir().c_str());
  return 0;
}
