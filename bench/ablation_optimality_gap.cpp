// Ablation: how far from provably optimal is each algorithm?
//
// The LP relaxation of the allocation ILP (LinModel + SimplexSolver)
// certifies a lower bound on the linear cost (usage + exploitation +
// migration) of any complete placement.  This bench reports each
// algorithm's gap to that bound on small instances — the quantitative
// backing for the paper's "close to optimal" claims, which Figs. 9/11
// only argue by comparison.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/csv.h"
#include "common/stats.h"
#include "common/table.h"
#include "lp/lin_model.h"
#include "lp/simplex.h"
#include "workload/generator.h"

int main() {
  using namespace iaas;
  using iaas::bench::apply_env;
  using iaas::bench::csv_dir;
  using iaas::bench::paper_suite;

  std::printf("=== Ablation: optimality gap vs LP relaxation bound ===\n");
  iaas::bench::SweepConfig env_probe;
  env_probe.runs = 3;
  env_probe = apply_env(env_probe);
  const std::size_t runs = env_probe.runs;

  ScenarioConfig scenario = ScenarioConfig::paper_scale(16);
  scenario.preplaced_fraction = 0.5;  // exercise the migration term too
  const ScenarioGenerator generator(scenario);
  const SuiteOptions suite = paper_suite();

  // Collect the per-run LP bounds once.
  std::vector<Instance> instances;
  std::vector<double> bounds;
  for (std::size_t run = 0; run < runs; ++run) {
    instances.push_back(generator.generate(900 + run));
    const LinModel model(instances.back());
    const LpSolution relax = solve_lp_relaxation(model);
    if (relax.status != LpStatus::kOptimal) {
      std::fprintf(stderr, "LP relaxation %s on run %zu — skipping run\n",
                   lp_status_name(relax.status).c_str(), run);
      bounds.push_back(-1.0);
      continue;
    }
    bounds.push_back(relax.objective);
  }

  TextTable table({"algorithm", "mean linear cost", "mean LP bound",
                   "mean gap", "rejected"});
  CsvWriter csv(csv_dir() + "/ablation_optimality_gap.csv",
                {"algorithm", "linear_cost", "lp_bound", "gap_ratio",
                 "rejection_rate"});

  for (AlgorithmId id : all_algorithms()) {
    RunningStats cost_stats, bound_stats, gap_stats, rej_stats;
    for (std::size_t run = 0; run < runs; ++run) {
      if (bounds[run] < 0.0) {
        continue;
      }
      const Instance& inst = instances[run];
      const AllocationResult r =
          make_allocator(id, suite)->allocate(inst, 17 + run);
      // Compare on the ILP's own objective (downtime is outside the LP).
      const double linear =
          r.objectives.usage_cost + r.objectives.migration_cost;
      cost_stats.add(linear);
      bound_stats.add(bounds[run]);
      gap_stats.add(bounds[run] > 1e-9 ? linear / bounds[run] - 1.0 : 0.0);
      rej_stats.add(r.rejection_rate());
    }
    table.add_row({algorithm_name(id), TextTable::num(cost_stats.mean(), 2),
                   TextTable::num(bound_stats.mean(), 2),
                   TextTable::num(100.0 * gap_stats.mean(), 1) + "%",
                   TextTable::num(rej_stats.mean(), 3)});
    csv.add_row({algorithm_name(id), TextTable::num(cost_stats.mean(), 4),
                 TextTable::num(bound_stats.mean(), 4),
                 TextTable::num(gap_stats.mean(), 6),
                 TextTable::num(rej_stats.mean(), 6)});
  }
  std::printf("\n16 servers / 32 VMs, 50%% preplaced, %zu runs;"
              " gap = cost/bound - 1 (rejections shrink cost, so read the"
              " gap beside the rejected column):\n",
              runs);
  table.print();
  std::printf(
      "\nReading: ConstraintProgramming sits closest to the bound (it"
      "\noptimises exactly this objective); NSGA-III+Tabu should be within"
      "\na small factor while also rejecting nothing.\n");
  return 0;
}
