// Ablation: the four constraint-handling methods the paper enumerates
// (§III) — exclusion, repair, penalty, plus the do-nothing baseline —
// under identical NSGA-III settings.
//
// Paper's account: exclusion (method 1) "excludes too many individuals";
// penalties "lead to serious increases in response times" and sometimes
// no solution at all; repair via tabu search (method 2) was adopted.
//
// Each run is serial (threads = 1; results do not depend on the thread
// count) and timed in the CPU time of its thread, and each row reports
// its fastest run: the runs take 10-20 ms, which wall-clock means on a
// shared host cannot rank.
#include <algorithm>
#include <cstdio>
#include <limits>

#include "algo/allocator.h"
#include "algo/ideal_point.h"
#include "bench/bench_util.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"
#include "ea/nsga3.h"
#include "ea/problem.h"
#include "tabu/repair.h"
#include "workload/generator.h"

namespace {

using namespace iaas;

struct ModeRow {
  std::string name;
  ConstraintMode mode;
};

}  // namespace

int main() {
  using iaas::bench::apply_env;
  using iaas::bench::csv_dir;
  using iaas::bench::thread_cpu_seconds;

  std::printf("=== Ablation: constraint-handling methods (paper §III) ===\n");
  iaas::bench::SweepConfig env_probe;
  env_probe.runs = 3;
  env_probe = apply_env(env_probe);
  const std::size_t runs = env_probe.runs;

  ScenarioConfig scenario = ScenarioConfig::paper_scale(32);
  scenario.constrained_fraction = 0.4;
  const ScenarioGenerator generator(scenario);

  const std::vector<ModeRow> modes = {
      {"ignore (unmodified)", ConstraintMode::kIgnore},
      {"exclude (method 1)", ConstraintMode::kExclude},
      {"penalty (rejected attempt)", ConstraintMode::kPenalty},
      {"repair via tabu (method 2)", ConstraintMode::kRepair},
  };

  TextTable table({"constraint handling", "min CPU time (s)",
                   "raw violations", "rejection rate", "cost/accepted"});
  CsvWriter csv(csv_dir() + "/ablation_constraint_modes.csv",
                {"mode", "min_cpu_seconds", "violations", "rejection_rate",
                 "cost_per_accepted"});

  for (const ModeRow& row : modes) {
    double min_seconds = std::numeric_limits<double>::infinity();
    RunningStats viols, rej, cost;
    for (std::size_t run = 0; run < runs; ++run) {
      const Instance inst = generator.generate(100 + run);
      AllocationProblem problem(inst);
      NsgaConfig cfg;  // Table III defaults
      cfg.threads = 1;
      cfg.constraint_mode = row.mode;
      const TabuRepair repair(inst, {}, problem.tables());
      RepairFn repair_fn;
      if (row.mode == ConstraintMode::kRepair) {
        repair_fn = [&repair](PlacementState& state, Rng& rng) {
          repair.repair_state(state, rng);
        };
      }
      Nsga3 engine(problem, cfg, repair_fn);
      const double start = thread_cpu_seconds();
      const auto ea_result = engine.run(run + 1);
      const double seconds = thread_cpu_seconds() - start;
      const std::size_t pick = select_ideal_point(ea_result.front);
      const AllocationResult r = Allocator::finalize(
          inst, row.name, Placement(ea_result.front[pick].genes), seconds, 0);
      min_seconds = std::min(min_seconds, seconds);
      viols.add(static_cast<double>(r.raw_violations.total()));
      rej.add(r.rejection_rate());
      const std::size_t accepted = r.vm_count - r.rejected;
      cost.add(accepted == 0 ? 0.0
                             : r.objectives.usage_cost /
                                   static_cast<double>(accepted));
    }
    table.add_row({row.name, TextTable::num(min_seconds, 4),
                   TextTable::num(viols.mean(), 2),
                   TextTable::num(rej.mean(), 4),
                   TextTable::num(cost.mean(), 3)});
    csv.add_row({row.name, TextTable::num(min_seconds, 6),
                 TextTable::num(viols.mean(), 4),
                 TextTable::num(rej.mean(), 6),
                 TextTable::num(cost.mean(), 6)});
  }
  std::printf("\nNSGA-III at 32 servers / 64 VMs, %zu runs each, one thread:\n",
              runs);
  table.print();
  std::printf(
      "\nExpected shape (paper): repair dominates — zero violations with"
      "\nthe lowest rejection; ignore violates; exclude and penalty trail"
      "\non acceptance or cost.\n");
  return 0;
}
