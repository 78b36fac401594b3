// NSGA-II / NSGA-III settings.  The paper runs every EA under Table III:
//   populationSize 100, 10000 evaluations, SBX rate .70 / DI 15,
//   PM rate .20 / DI 15.
// The variation operators' four values are constants; the population
// size and the evaluation budget are NsgaConfig defaults, which the
// scaled-down benches and the steady-state simulator shrink.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iaas {

// Table III's variation operators.
inline constexpr double kSbxRate = 0.70;
inline constexpr double kSbxDistributionIndex = 15.0;
inline constexpr double kPmRate = 0.20;  // per-gene probability
inline constexpr double kPmDistributionIndex = 15.0;

// The paper's four ways of making an EA respect strict constraints
// (§III): it adopted repair (method 2) and found exclusion (method 1)
// discards too much and penalties explode response times — all are
// implemented so the ablation benches can reproduce that comparison.
enum class ConstraintMode : std::uint8_t {
  kIgnore,   // "unmodified" NSGA-II/III: constraints invisible to search
  kExclude,  // method 1: infeasible individuals dropped at selection
  kPenalty,  // rejected attempt: violation penalty added to objectives
  kRepair,   // method 2 (adopted): invalid individuals repaired
};

struct NsgaConfig {
  std::size_t population_size = 100;     // Table III
  std::size_t max_evaluations = 10000;   // Table III

  ConstraintMode constraint_mode = ConstraintMode::kIgnore;

  // Repair placement within the generation (paper Fig. 4 repairs the two
  // selected parents before variation; repairing offspring too keeps the
  // final population feasible).
  bool repair_parents = true;
  bool repair_offspring = true;

  // NSGA-III reference-point density: Das-Dennis divisions per objective
  // (12 divisions on 3 objectives -> C(14,2) = 91 points < pop 100).
  std::size_t reference_divisions = 12;

  // Seed the initial population with the previous window's placement
  // (rejected VMs randomised).  Without it the search almost never
  // rediscovers the incumbent and the migration objective cannot hold
  // running work in place.
  bool warm_start = true;

  // Cross-run warm start: gene vectors (e.g. the previous run's final
  // front, compacted to the current VM set) injected into the initial
  // population after the incumbent.  Vectors whose length does not match
  // the problem's gene count are skipped; at most half the population is
  // seeded so random exploration survives.  Genes are clamped to the
  // valid range.  Cleared state between windows is the caller's job —
  // the engine reads it verbatim each run.
  std::vector<std::vector<std::int32_t>> seed_genes;

  // U-NSGA-III niche tournament (the paper's [28]): when two tournament
  // candidates share rank *and* reference niche, the one closer to its
  // reference line wins; canonical NSGA-III picks randomly.
  bool niche_tournament = false;

  // Parallel objective evaluation: 0 = use the process-shared pool,
  // 1 = strictly serial, otherwise a dedicated pool of that many threads.
  std::size_t threads = 1;

  // Soft wall-clock budget for one run (seconds; 0 = unlimited; NaN or
  // negative aborts at construction).  Checked at generation
  // boundaries: the engine finishes the generation in flight, then
  // stops and reports the best front found so far
  // (Result::hit_time_limit).  This is the anytime property the
  // simulator's graceful-degradation chain relies on; enabling it makes
  // the *generation count* timing-dependent, so determinism tests keep
  // it at 0 (or force it so low that zero generations run).
  double time_limit_seconds = 0.0;

  // Record a per-generation telemetry::RunTrace in the engine Result
  // (counters are deterministic at any thread count; the wall-time
  // columns are not).  Off by default: tracing adds a timer read per
  // phase per task.
  bool collect_trace = false;
};

}  // namespace iaas
