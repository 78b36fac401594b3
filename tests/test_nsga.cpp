// NSGA-II / NSGA-III engines: population discipline, constraint modes,
// repair hooks, improvement over random, parallel evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "algo/cp_repair.h"
#include "ea/nsga2.h"
#include "ea/nsga3.h"
#include "tabu/repair.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

NsgaConfig quick_config() {
  NsgaConfig cfg;  // Table III defaults...
  cfg.population_size = 20;        // ...scaled down for test speed
  cfg.max_evaluations = 400;
  cfg.reference_divisions = 4;
  return cfg;
}

double mean_random_aggregate(const AllocationProblem& problem,
                             std::uint64_t seed) {
  Rng rng(seed);
  PlacementState state(problem.instance(), {}, StateTracking::kFull,
                       problem.tables());
  double total = 0.0;
  const int samples = 50;
  std::vector<std::int32_t> genes(problem.gene_count());
  for (int i = 0; i < samples; ++i) {
    randomize_genes(genes, problem.max_gene(), rng);
    state.rebuild(genes);
    total += state.aggregate();
  }
  return total / samples;
}

// Sum of one counter column over a run's generation rows.
std::size_t trace_total(const telemetry::RunTrace& trace,
                        std::size_t telemetry::GenerationRow::*field) {
  std::size_t sum = 0;
  for (const telemetry::GenerationRow& row : trace.rows) {
    sum += row.*field;
  }
  return sum;
}

double best_front_aggregate(const std::vector<Individual>& front) {
  double best = std::numeric_limits<double>::infinity();
  for (const Individual& i : front) {
    best = std::min(best,
                    i.objectives[0] + i.objectives[1] + i.objectives[2]);
  }
  return best;
}

TEST(Nsga2, MaintainsPopulationSizeAndBudget) {
  const Instance inst = test::make_random_instance(1, 8, 16);
  const AllocationProblem problem(inst);
  Nsga2 engine(problem, quick_config());
  const auto result = engine.run(1);
  EXPECT_EQ(result.population.size(), 20u);
  EXPECT_GE(result.evaluations, 400u);
  EXPECT_LT(result.evaluations, 400u + 2 * 20u);  // one generation overshoot
  EXPECT_FALSE(result.front.empty());
  EXPECT_GT(result.generations, 0u);
}

TEST(Nsga2, ImprovesOverRandomSampling) {
  const Instance inst = test::make_random_instance(2, 8, 24);
  const AllocationProblem problem(inst);
  Nsga2 engine(problem, quick_config());
  const auto result = engine.run(3);
  EXPECT_LT(best_front_aggregate(result.front),
            mean_random_aggregate(problem, 99));
}

TEST(Nsga2, DeterministicPerSeed) {
  const Instance inst = test::make_random_instance(3, 8, 16);
  const AllocationProblem problem(inst);
  Nsga2 a(problem, quick_config());
  Nsga2 b(problem, quick_config());
  const auto ra = a.run(42);
  const auto rb = b.run(42);
  ASSERT_EQ(ra.front.size(), rb.front.size());
  for (std::size_t i = 0; i < ra.front.size(); ++i) {
    EXPECT_EQ(ra.front[i].genes, rb.front[i].genes);
  }
}

TEST(Nsga2, FrontIsMutuallyNondominated) {
  const Instance inst = test::make_random_instance(4, 8, 16);
  const AllocationProblem problem(inst);
  Nsga2 engine(problem, quick_config());
  const auto result = engine.run(7);
  for (const Individual& a : result.front) {
    for (const Individual& b : result.front) {
      EXPECT_FALSE(dominates(a, b) && dominates(b, a));
    }
  }
}

TEST(Nsga3, MaintainsPopulationSize) {
  const Instance inst = test::make_random_instance(5, 8, 16);
  const AllocationProblem problem(inst);
  Nsga3 engine(problem, quick_config());
  const auto result = engine.run(1);
  EXPECT_EQ(result.population.size(), 20u);
  EXPECT_FALSE(result.front.empty());
}

TEST(Nsga3, ReferencePointCountMatchesDivisions) {
  const Instance inst = test::make_random_instance(6, 8, 16);
  const AllocationProblem problem(inst);
  NsgaConfig cfg = quick_config();
  cfg.reference_divisions = 12;
  Nsga3 engine(problem, cfg);
  EXPECT_EQ(engine.reference_points().size(), 91u);  // C(14,2)
}

TEST(Nsga3, ImprovesOverRandomSampling) {
  const Instance inst = test::make_random_instance(7, 8, 24);
  const AllocationProblem problem(inst);
  Nsga3 engine(problem, quick_config());
  const auto result = engine.run(11);
  EXPECT_LT(best_front_aggregate(result.front),
            mean_random_aggregate(problem, 98));
}

TEST(Nsga3, IgnoreModeTypicallyViolates) {
  // Unmodified NSGA on a constrained instance: the front may violate —
  // the paper's Fig. 10 finding.  Use a tight instance so violations are
  // all but certain.
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.vms = 64;
  cfg.constrained_fraction = 0.6;
  const Instance inst = ScenarioGenerator(cfg).generate(3);
  const AllocationProblem problem(inst);
  Nsga3 engine(problem, quick_config());
  const auto result = engine.run(5);
  std::uint32_t total_violations = 0;
  for (const Individual& i : result.population) {
    total_violations += i.violations;
  }
  EXPECT_GT(total_violations, 0u);
}

TEST(NsgaBase, PenaltyModeRuns) {
  const Instance inst = test::make_random_instance(9, 8, 16);
  const AllocationProblem problem(inst);
  NsgaConfig cfg = quick_config();
  cfg.constraint_mode = ConstraintMode::kPenalty;
  Nsga2 engine(problem, cfg);
  const auto result = engine.run(17);
  EXPECT_EQ(result.population.size(), 20u);
}

TEST(NsgaBase, ExcludeModeKeepsPopulationFilled) {
  const Instance inst = test::make_random_instance(10, 8, 16);
  const AllocationProblem problem(inst);
  NsgaConfig cfg = quick_config();
  cfg.constraint_mode = ConstraintMode::kExclude;
  Nsga3 engine(problem, cfg);
  const auto result = engine.run(19);
  EXPECT_EQ(result.population.size(), 20u);
}

TEST(NsgaBase, ParallelEvaluationMatchesSerial) {
  const Instance inst = test::make_random_instance(11, 8, 24);
  const AllocationProblem problem(inst);
  NsgaConfig serial = quick_config();
  serial.threads = 1;
  NsgaConfig parallel = quick_config();
  parallel.threads = 4;
  Nsga2 a(problem, serial);
  Nsga2 b(problem, parallel);
  const auto ra = a.run(23);
  const auto rb = b.run(23);
  // Same seed, same algorithm: evaluation order cannot affect results.
  ASSERT_EQ(ra.front.size(), rb.front.size());
  for (std::size_t i = 0; i < ra.front.size(); ++i) {
    EXPECT_EQ(ra.front[i].genes, rb.front[i].genes);
  }
}

// The tentpole guarantee of the two-phase generation loop: for a fixed
// seed, thread count must not change anything observable — final fronts,
// full populations, and the repair/evaluation tallies — in any of the
// paper's four constraint modes.
TEST(NsgaBase, ThreadCountInvariantInAllConstraintModes) {
  const Instance inst = test::make_random_instance(21, 8, 32);
  const AllocationProblem problem(inst);
  TabuRepair repair(inst);
  const RepairFn repair_fn = [&repair](PlacementState& state, Rng& rng) {
    repair.repair_state(state, rng);
  };

  for (const ConstraintMode mode :
       {ConstraintMode::kIgnore, ConstraintMode::kExclude,
        ConstraintMode::kPenalty, ConstraintMode::kRepair}) {
    NsgaConfig serial = quick_config();
    serial.constraint_mode = mode;
    serial.threads = 1;

    Nsga3 a(problem, serial, repair_fn);
    const auto ra = a.run(91);

    // 2, 3 and 8 threads claim the 20 initial tasks 3, 2 and 1 at a
    // time (~4 chunks per worker) and run on 2, 3 and 8 arenas; every
    // such schedule must reproduce the serial run exactly.
    for (const std::size_t threads : {2u, 3u, 8u}) {
      NsgaConfig parallel = serial;
      parallel.threads = threads;

      Nsga3 b(problem, parallel, repair_fn);
      const auto rb = b.run(91);

      EXPECT_EQ(ra.evaluations, rb.evaluations);
      EXPECT_EQ(ra.repair_invocations, rb.repair_invocations);
      EXPECT_EQ(ra.generations, rb.generations);
      ASSERT_EQ(ra.front.size(), rb.front.size());
      for (std::size_t i = 0; i < ra.front.size(); ++i) {
        EXPECT_EQ(ra.front[i].genes, rb.front[i].genes);
        EXPECT_EQ(ra.front[i].objectives, rb.front[i].objectives);
        EXPECT_EQ(ra.front[i].violations, rb.front[i].violations);
      }
      ASSERT_EQ(ra.population.size(), rb.population.size());
      for (std::size_t i = 0; i < ra.population.size(); ++i) {
        EXPECT_EQ(ra.population[i].genes, rb.population[i].genes);
        EXPECT_EQ(ra.population[i].objectives, rb.population[i].objectives);
      }
    }
  }
}

TEST(NsgaBase, CpRepairThreadCountInvariant) {
  // Every CpRepair::repair_state call searches its slot's own arena
  // state, so concurrent repairs from the evaluation threads must
  // reproduce the serial run exactly.
  const Instance inst = test::make_random_instance(21, 8, 32);
  const AllocationProblem problem(inst);
  const CpRepair repair(inst, 200);
  const RepairFn repair_fn = [&repair](PlacementState& state, Rng& rng) {
    repair.repair_state(state, rng);
  };

  NsgaConfig serial = quick_config();
  serial.constraint_mode = ConstraintMode::kRepair;
  serial.threads = 1;
  serial.collect_trace = true;
  Nsga3 a(problem, serial, repair_fn);
  const auto ra = a.run(91);
  // The repairs searched: their moves are the run's only delta moves.
  EXPECT_GT(trace_total(ra.trace, &telemetry::GenerationRow::delta_moves),
            0u);
  // Each repair closes with a rebuild of its result, so every member's
  // objectives are a fresh rebuild's, bit for bit.
  PlacementState fresh(inst);
  for (const Individual& member : ra.population) {
    fresh.rebuild(member.genes);
    EXPECT_EQ(fresh.total_violations(), member.violations);
    const ObjArray objectives = fresh.objectives().as_array();
    for (std::size_t o = 0; o < ObjectiveVector::kCount; ++o) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(objectives[o]),
                std::bit_cast<std::uint64_t>(member.objectives[o]));
    }
  }

  for (const std::size_t threads : {2u, 3u, 8u}) {
    NsgaConfig parallel = serial;
    parallel.threads = threads;
    Nsga3 b(problem, parallel, repair_fn);
    const auto rb = b.run(91);

    EXPECT_EQ(ra.evaluations, rb.evaluations);
    EXPECT_EQ(ra.repair_invocations, rb.repair_invocations);
    EXPECT_EQ(ra.generations, rb.generations);
    ASSERT_EQ(ra.front.size(), rb.front.size());
    for (std::size_t i = 0; i < ra.front.size(); ++i) {
      EXPECT_EQ(ra.front[i].genes, rb.front[i].genes);
      EXPECT_EQ(ra.front[i].objectives, rb.front[i].objectives);
      EXPECT_EQ(ra.front[i].violations, rb.front[i].violations);
    }
    ASSERT_EQ(ra.population.size(), rb.population.size());
    for (std::size_t i = 0; i < ra.population.size(); ++i) {
      EXPECT_EQ(ra.population[i].genes, rb.population[i].genes);
      EXPECT_EQ(ra.population[i].objectives, rb.population[i].objectives);
    }
    ASSERT_EQ(ra.trace.rows.size(), rb.trace.rows.size());
    for (std::size_t g = 0; g < ra.trace.rows.size(); ++g) {
      EXPECT_EQ(ra.trace.rows[g].full_rebuilds, rb.trace.rows[g].full_rebuilds);
      EXPECT_EQ(ra.trace.rows[g].delta_moves, rb.trace.rows[g].delta_moves);
    }
  }
}

TEST(NsgaBase, TraceCountersDeterministicAcrossThreadCounts) {
  // The trace's counter columns are summed serially from per-task sink
  // blocks, so every row must be bit-identical at any thread count, and
  // the row totals must reconcile exactly with the Result tallies.
  const Instance inst = test::make_random_instance(21, 8, 32);
  const AllocationProblem problem(inst);
  TabuRepair repair(inst);
  const RepairFn repair_fn = [&repair](PlacementState& state, Rng& rng) {
    repair.repair_state(state, rng);
  };

  NsgaConfig serial = quick_config();
  serial.constraint_mode = ConstraintMode::kRepair;
  serial.collect_trace = true;
  serial.threads = 1;
  NsgaConfig parallel = serial;
  parallel.threads = 8;

  Nsga3 a(problem, serial, repair_fn);
  Nsga3 b(problem, parallel, repair_fn);
  const auto ra = a.run(91);
  const auto rb = b.run(91);

  using telemetry::GenerationRow;
  ASSERT_FALSE(ra.trace.empty());
  ASSERT_EQ(ra.trace.rows.size(), ra.generations + 1);  // + generation 0
  EXPECT_EQ(ra.trace.seed, 91u);

  // Trace totals reconcile exactly with the engine's own tallies.
  EXPECT_EQ(trace_total(ra.trace, &GenerationRow::evaluations),
            ra.evaluations);
  EXPECT_EQ(trace_total(ra.trace, &GenerationRow::repair_invocations),
            ra.repair_invocations);

  ASSERT_EQ(ra.trace.rows.size(), rb.trace.rows.size());
  for (std::size_t g = 0; g < ra.trace.rows.size(); ++g) {
    const GenerationRow& x = ra.trace.rows[g];
    const GenerationRow& y = rb.trace.rows[g];
    EXPECT_EQ(x.generation, y.generation);
    EXPECT_EQ(x.evaluations, y.evaluations);
    EXPECT_EQ(x.repair_invocations, y.repair_invocations);
    EXPECT_EQ(x.front_size, y.front_size);
    EXPECT_EQ(x.best_objectives, y.best_objectives);
    EXPECT_EQ(x.full_rebuilds, y.full_rebuilds);
    EXPECT_EQ(x.delta_moves, y.delta_moves);
    EXPECT_EQ(x.rebases, y.rebases);
    EXPECT_EQ(x.repaired, y.repaired);
    EXPECT_EQ(x.unrepairable, y.unrepairable);
    EXPECT_EQ(x.tabu_moves_tried, y.tabu_moves_tried);
    EXPECT_EQ(x.tabu_moves_accepted, y.tabu_moves_accepted);
    // Every repair walk that saw violations resolved one way or the
    // other.  Each repair, of a parent or an offspring, starts from one
    // full rebuild of the individual's genes, and no state is ever
    // repositioned any other way.
    EXPECT_LE(x.repaired + x.unrepairable, x.repair_invocations);
    EXPECT_EQ(x.full_rebuilds, x.repair_invocations);
    EXPECT_EQ(x.rebases, 0u);
  }

  // Tracing must not perturb the search itself.
  EXPECT_EQ(ra.evaluations, rb.evaluations);
  ASSERT_EQ(ra.population.size(), rb.population.size());
  for (std::size_t i = 0; i < ra.population.size(); ++i) {
    EXPECT_EQ(ra.population[i].genes, rb.population[i].genes);
  }
}

TEST(NsgaBase, TraceOffByDefaultAndEmpty) {
  const Instance inst = test::make_random_instance(5, 8, 16);
  const AllocationProblem problem(inst);
  Nsga2 engine(problem, quick_config());
  const auto result = engine.run(7);
  EXPECT_TRUE(result.trace.empty());
}

TEST(Nsga3, FusedRepairPathYieldsFeasibleFront) {
  // Repair mode yields a feasible front, and the repair walk's state,
  // read out as each member's evaluation, agrees with a full rebuild of
  // the repaired genes.
  for (const std::uint64_t instance_seed : {8u, 22u}) {
    Instance inst = test::make_random_instance(instance_seed, 8, 24);
    const AllocationProblem problem(inst);
    TabuRepair repair(inst);
    NsgaConfig cfg = quick_config();
    cfg.constraint_mode = ConstraintMode::kRepair;
    Nsga3 engine(problem, cfg, [&repair](PlacementState& state, Rng& rng) {
      repair.repair_state(state, rng);
    });
    const auto result = engine.run(13);
    EXPECT_GT(result.repair_invocations, 0u);
    PlacementState fresh(inst);
    for (const Individual& i : result.front) {
      EXPECT_EQ(i.violations, 0u);
      fresh.rebuild(i.genes);
      EXPECT_EQ(fresh.total_violations(), i.violations);
      const ObjArray objectives = fresh.objectives().as_array();
      for (std::size_t o = 0; o < ObjectiveVector::kCount; ++o) {
        EXPECT_NEAR(objectives[o], i.objectives[o], 1e-7);
      }
    }
  }
}

TEST(Nsga3, NicheTournamentRunsAndStaysDeterministic) {
  const Instance inst = test::make_random_instance(14, 8, 24);
  const AllocationProblem problem(inst);
  NsgaConfig cfg = quick_config();
  cfg.niche_tournament = true;  // U-NSGA-III variant
  Nsga3 a(problem, cfg);
  Nsga3 b(problem, cfg);
  const auto ra = a.run(31);
  const auto rb = b.run(31);
  EXPECT_EQ(ra.population.size(), 20u);
  ASSERT_EQ(ra.front.size(), rb.front.size());
  for (std::size_t i = 0; i < ra.front.size(); ++i) {
    EXPECT_EQ(ra.front[i].genes, rb.front[i].genes);
  }
}

TEST(Nsga3, NicheTournamentStillImprovesOverRandom) {
  const Instance inst = test::make_random_instance(15, 8, 24);
  const AllocationProblem problem(inst);
  NsgaConfig cfg = quick_config();
  cfg.niche_tournament = true;
  Nsga3 engine(problem, cfg);
  const auto result = engine.run(37);
  EXPECT_LT(best_front_aggregate(result.front),
            mean_random_aggregate(problem, 97));
}

// ---- Environmental selection against the list-based reference ------
//
// The engines sort into flat, reused fronts and niche from flat buckets.
// The reference below is the selection as first written: the template
// sort with each mode's comparator, nested fronts, one vector per niche.
// Both must keep the same survivors in the same order, with the same
// ranks, associations and crowding, and leave the RNG at the same draw.

class Nsga2Probe : public Nsga2 {
 public:
  using Nsga2::Nsga2;
  using Nsga2::environmental_selection;
};

class Nsga3Probe : public Nsga3 {
 public:
  using Nsga3::Nsga3;
  using Nsga3::environmental_selection;
};

// kExclude: a stable sort by violation count, then the infeasible tail
// past max(feasible, population_size) is dropped.
void reference_exclusion(Population& merged, std::size_t population_size) {
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Individual& a, const Individual& b) {
                     return a.violations < b.violations;
                   });
  const auto feasible = static_cast<std::size_t>(
      std::find_if(merged.begin(), merged.end(),
                   [](const Individual& ind) { return ind.violations > 0; }) -
      merged.begin());
  merged.resize(std::min(merged.size(), std::max(feasible, population_size)));
}

std::vector<std::vector<std::size_t>> reference_fronts(
    std::span<Individual> population, ConstraintMode mode) {
  switch (mode) {
    case ConstraintMode::kIgnore:
      break;
    case ConstraintMode::kPenalty:
      return nondominated_sort(
          population, [](const Individual& a, const Individual& b) {
            std::array<double, ObjectiveVector::kCount> pa = a.objectives;
            std::array<double, ObjectiveVector::kCount> pb = b.objectives;
            for (std::size_t i = 0; i < pa.size(); ++i) {
              pa[i] += 1000.0 * a.violations;
              pb[i] += 1000.0 * b.violations;
            }
            return dominates(std::span<const double>(pa),
                             std::span<const double>(pb));
          });
    case ConstraintMode::kExclude:
    case ConstraintMode::kRepair:
      return nondominated_sort(population, constrained_dominates);
  }
  return nondominated_sort(population,
                           [](const Individual& a, const Individual& b) {
                             return dominates(a, b);
                           });
}

void reference_nsga2_selection(Nsga2Probe& engine, Population& merged,
                               Population& next) {
  const NsgaConfig& config = engine.config();
  if (config.constraint_mode == ConstraintMode::kExclude) {
    reference_exclusion(merged, config.population_size);
  }
  const auto fronts = reference_fronts(merged, config.constraint_mode);
  next.clear();
  std::vector<std::size_t> scratch;
  for (const auto& front : fronts) {
    assign_crowding_distance(merged, front, scratch);
    if (next.size() + front.size() <= config.population_size) {
      for (std::size_t idx : front) {
        next.push_back(std::move(merged[idx]));
      }
      if (next.size() == config.population_size) {
        break;
      }
      continue;
    }
    std::vector<std::size_t> order(front);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return merged[a].crowding > merged[b].crowding;
                     });
    for (std::size_t i = 0; next.size() < config.population_size; ++i) {
      next.push_back(std::move(merged[order[i]]));
    }
    break;
  }
}

double reference_distance(const ObjArray& p, const ObjArray& dir) {
  double dir_norm2 = 0.0;
  double dot = 0.0;
  for (std::size_t i = 0; i < kObjectives; ++i) {
    dir_norm2 += dir[i] * dir[i];
    dot += p[i] * dir[i];
  }
  if (dir_norm2 <= 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  const double t = dot / dir_norm2;
  double dist2 = 0.0;
  for (std::size_t i = 0; i < kObjectives; ++i) {
    const double d = p[i] - t * dir[i];
    dist2 += d * d;
  }
  return std::sqrt(dist2);
}

std::pair<std::size_t, double> reference_closest(
    const std::vector<ObjArray>& refs, const ObjArray& norm) {
  double best = std::numeric_limits<double>::infinity();
  std::size_t best_ref = 0;
  for (std::size_t r = 0; r < refs.size(); ++r) {
    const double d = reference_distance(norm, refs[r]);
    if (d < best) {
      best = d;
      best_ref = r;
    }
  }
  return {best_ref, best};
}

void reference_nsga3_selection(Nsga3Probe& engine, Population& merged,
                               Population& next, Rng& rng) {
  const NsgaConfig& config = engine.config();
  const std::vector<ObjArray>& refs = engine.reference_points();
  if (config.constraint_mode == ConstraintMode::kExclude) {
    reference_exclusion(merged, config.population_size);
  }
  const std::size_t target = config.population_size;
  const auto fronts = reference_fronts(merged, config.constraint_mode);
  next.clear();
  std::vector<std::size_t> selected;
  std::vector<std::size_t> last_front;
  for (const auto& front : fronts) {
    if (selected.size() + front.size() <= target) {
      selected.insert(selected.end(), front.begin(), front.end());
      if (selected.size() == target) {
        break;
      }
    } else {
      last_front = front;
      break;
    }
  }
  if (selected.size() == target || last_front.empty()) {
    for (std::size_t idx : selected) {
      next.push_back(std::move(merged[idx]));
    }
    if (config.niche_tournament && !next.empty()) {
      std::vector<std::size_t> members(next.size());
      std::iota(members.begin(), members.end(), std::size_t{0});
      Normalizer normalizer;
      normalizer.fit(next, members);
      for (Individual& ind : next) {
        const auto [ref, distance] =
            reference_closest(refs, normalizer.normalize(ind.objectives));
        ind.ref_index = static_cast<std::uint32_t>(ref);
        ind.ref_distance = distance;
      }
    }
    return;
  }
  std::vector<std::size_t> st(selected);
  st.insert(st.end(), last_front.begin(), last_front.end());
  Normalizer normalizer;
  normalizer.fit(merged, st);
  std::vector<std::pair<std::size_t, double>> assoc(merged.size());
  for (std::size_t idx : st) {
    assoc[idx] =
        reference_closest(refs, normalizer.normalize(merged[idx].objectives));
  }
  std::vector<std::size_t> niche_count(refs.size(), 0);
  for (std::size_t idx : selected) {
    ++niche_count[assoc[idx].first];
  }
  std::vector<std::vector<std::size_t>> candidates(refs.size());
  for (std::size_t idx : last_front) {
    candidates[assoc[idx].first].push_back(idx);
  }
  while (selected.size() < target) {
    std::size_t best_ref = refs.size();
    std::size_t best_count = std::numeric_limits<std::size_t>::max();
    std::size_t ties = 0;
    for (std::size_t r = 0; r < refs.size(); ++r) {
      if (candidates[r].empty()) {
        continue;
      }
      if (niche_count[r] < best_count) {
        best_count = niche_count[r];
        best_ref = r;
        ties = 1;
      } else if (niche_count[r] == best_count) {
        ++ties;
        if (rng.uniform_index(ties) == 0) {
          best_ref = r;
        }
      }
    }
    ASSERT_LT(best_ref, refs.size());
    auto& bucket = candidates[best_ref];
    std::size_t pick_pos = 0;
    if (niche_count[best_ref] == 0) {
      for (std::size_t i = 1; i < bucket.size(); ++i) {
        if (assoc[bucket[i]].second < assoc[bucket[pick_pos]].second) {
          pick_pos = i;
        }
      }
    } else {
      pick_pos = rng.uniform_index(bucket.size());
    }
    selected.push_back(bucket[pick_pos]);
    bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    ++niche_count[best_ref];
  }
  for (std::size_t idx : selected) {
    merged[idx].ref_index = static_cast<std::uint32_t>(assoc[idx].first);
    merged[idx].ref_distance = assoc[idx].second;
    next.push_back(std::move(merged[idx]));
  }
}

// A merged population of 2 * `half` members, each tagged by its one gene.
// `straddle` draws objectives from a few levels with ties and duplicates,
// so a front usually straddles the cut; otherwise the first `half` lie on
// the simplex (mutually non-dominated) and the rest sit behind them, so
// front 0 fills the survivors exactly.
Population merged_population(Rng& rng, std::size_t half, bool straddle) {
  Population merged(2 * half);
  for (std::size_t i = 0; i < merged.size(); ++i) {
    Individual& member = merged[i];
    member.genes = {static_cast<std::int32_t>(i)};
    member.rank = 77;
    member.crowding = -1.0;
    member.ref_index = static_cast<std::uint32_t>(1000 + i);
    member.ref_distance = -2.0;
    if (straddle) {
      for (double& v : member.objectives) {
        v = rng.bernoulli(0.3) ? static_cast<double>(rng.uniform_int(0, 6))
                               : rng.next_double() * 6.0;
      }
      member.violations =
          rng.bernoulli(0.3) ? static_cast<std::uint32_t>(rng.uniform_int(1, 4))
                             : 0u;
    } else {
      const double a = rng.next_double();
      const double b = rng.next_double() * (1.0 - a);
      const double shift = i < half ? 0.0 : 1.0 + rng.next_double();
      member.objectives = {a + shift, b + shift, 1.0 - a - b + shift};
      member.violations =
          i < half ? 0u : static_cast<std::uint32_t>(rng.uniform_int(0, 2));
    }
  }
  for (std::size_t i = 0; straddle && i + 1 < merged.size(); i += 9) {
    merged[i + 1].objectives = merged[i].objectives;
    merged[i + 1].violations = merged[i].violations;
  }
  return merged;
}

void expect_same_survivors(const Population& got, const Population& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].genes, want[i].genes) << "survivor " << i;
    EXPECT_EQ(got[i].rank, want[i].rank) << "survivor " << i;
    EXPECT_EQ(got[i].ref_index, want[i].ref_index) << "survivor " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].ref_distance),
              std::bit_cast<std::uint64_t>(want[i].ref_distance))
        << "survivor " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].crowding),
              std::bit_cast<std::uint64_t>(want[i].crowding))
        << "survivor " << i;
  }
}

constexpr ConstraintMode kAllModes[] = {
    ConstraintMode::kIgnore, ConstraintMode::kExclude,
    ConstraintMode::kPenalty, ConstraintMode::kRepair};

TEST(Nsga3, SelectionMatchesListBasedReference) {
  const Instance inst = test::make_random_instance(3, 8, 16);
  const AllocationProblem problem(inst);
  const TabuRepair repair(inst);
  const RepairFn repair_fn = [&repair](PlacementState& state, Rng& rng) {
    repair.repair_state(state, rng);
  };
  Rng draw(41);
  for (const ConstraintMode mode : kAllModes) {
    for (const bool niche_tournament : {false, true}) {
      for (const std::size_t half : {24u, 100u}) {
        NsgaConfig cfg;
        cfg.population_size = half;
        cfg.reference_divisions = half == 24 ? 4 : 12;
        cfg.constraint_mode = mode;
        cfg.niche_tournament = niche_tournament;
        // One engine for every round, so its scratch carries over.
        Nsga3Probe engine(problem, cfg, repair_fn);
        Nsga3Probe reference(problem, cfg, repair_fn);
        for (int round = 0; round < 12; ++round) {
          const Population merged =
              merged_population(draw, half, round % 4 != 0);
          Population got_merged = merged;
          Population want_merged = merged;
          Population got;
          Population want;
          Rng got_rng(static_cast<std::uint64_t>(round));
          Rng want_rng(static_cast<std::uint64_t>(round));
          engine.environmental_selection(got_merged, got, got_rng);
          reference_nsga3_selection(reference, want_merged, want, want_rng);
          expect_same_survivors(got, want);
          EXPECT_EQ(got_rng.next_u64(), want_rng.next_u64());
        }
      }
    }
  }
}

TEST(Nsga2, SelectionMatchesListBasedReference) {
  const Instance inst = test::make_random_instance(3, 8, 16);
  const AllocationProblem problem(inst);
  const TabuRepair repair(inst);
  const RepairFn repair_fn = [&repair](PlacementState& state, Rng& rng) {
    repair.repair_state(state, rng);
  };
  Rng draw(43);
  for (const ConstraintMode mode : kAllModes) {
    for (const std::size_t half : {24u, 100u}) {
      NsgaConfig cfg;
      cfg.population_size = half;
      cfg.constraint_mode = mode;
      Nsga2Probe engine(problem, cfg, repair_fn);
      Nsga2Probe reference(problem, cfg, repair_fn);
      for (int round = 0; round < 12; ++round) {
        const Population merged =
            merged_population(draw, half, round % 4 != 0);
        Population got_merged = merged;
        Population want_merged = merged;
        Population got;
        Population want;
        Rng got_rng(static_cast<std::uint64_t>(round));
        engine.environmental_selection(got_merged, got, got_rng);
        reference_nsga2_selection(reference, want_merged, want);
        expect_same_survivors(got, want);
        EXPECT_EQ(got_rng.next_u64(),
                  Rng(static_cast<std::uint64_t>(round)).next_u64());
      }
    }
  }
}

TEST(AllocationProblem, WarmStartGenesMirrorPrevious) {
  Instance inst = test::make_random_instance(16, 8, 16);
  inst.previous.assign(0, 3);
  inst.previous.assign(5, 7);
  const AllocationProblem problem(inst);
  Rng rng(1);
  const auto genes = problem.warm_start_genes(rng);
  ASSERT_EQ(genes.size(), 16u);
  EXPECT_EQ(genes[0], 3);
  EXPECT_EQ(genes[5], 7);
  for (std::int32_t g : genes) {
    EXPECT_GE(g, 0);  // unplaced VMs randomised, never left rejected
    EXPECT_LE(g, problem.max_gene());
  }
}

TEST(AllocationProblem, WarmStartEmptyWithoutPrevious) {
  const Instance inst = test::make_random_instance(17, 8, 16);
  const AllocationProblem problem(inst);
  Rng rng(1);
  EXPECT_TRUE(problem.warm_start_genes(rng).empty());
}

}  // namespace
}  // namespace iaas
