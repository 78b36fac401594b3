#include "ea/nsga_base.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "common/stopwatch.h"
#include "model/placement.h"

namespace iaas {
namespace {

// Front size + best (min-aggregate) objective vector of the survivors;
// called right after environmental_selection stamps ranks.
void stamp_population_summary(const Population& population,
                              telemetry::GenerationRow& row) {
  row.front_size = 0;
  double best = std::numeric_limits<double>::infinity();
  const Individual* best_ind = nullptr;
  for (const Individual& ind : population) {
    if (ind.rank == 0) {
      ++row.front_size;
    }
    double aggregate = 0.0;
    for (double v : ind.objectives) {
      aggregate += v;
    }
    if (aggregate < best) {
      best = aggregate;
      best_ind = &ind;
    }
  }
  if (best_ind != nullptr) {
    row.best_objectives = best_ind->objectives;
  }
}

}  // namespace

NsgaBase::NsgaBase(const AllocationProblem& problem, NsgaConfig config,
                   RepairFn repair)
    : problem_(&problem), config_(config), repair_(std::move(repair)) {
  IAAS_EXPECT(config_.population_size >= 4,
              "population too small for tournament + crossover");
  // A NaN budget fails the compare too (it would silently mean none).
  IAAS_EXPECT(config_.time_limit_seconds >= 0.0,
              "time_limit_seconds must be non-negative (0 = unlimited)");
  if (config_.constraint_mode == ConstraintMode::kRepair) {
    IAAS_EXPECT(static_cast<bool>(repair_),
                "kRepair mode requires a repair function");
  }
  if (config_.threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(config_.threads);
  }
  // Selection sees at most the merged parents and offspring.
  order_.reserve(2 * config_.population_size);
}

ThreadPool* NsgaBase::evaluation_pool() {
  if (config_.threads == 1) {
    return nullptr;
  }
  if (owned_pool_ != nullptr) {
    return owned_pool_.get();
  }
  return &ThreadPool::shared();
}

const Fronts& NsgaBase::sort_fronts(std::span<Individual> population) {
  return keyed_nondominated_sort(population, config_.constraint_mode,
                                 sort_scratch_);
}

std::span<Individual> NsgaBase::apply_exclusion(Population& merged) {
  // std::stable_sort's order by violations, found on indices (with the
  // index as tie-break) so that no buffer of individuals is allocated,
  // then applied in place one cycle at a time.
  order_.resize(merged.size());
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::sort(order_.begin(), order_.end(),
            [&merged](std::size_t a, std::size_t b) {
              const std::uint32_t va = merged[a].violations;
              const std::uint32_t vb = merged[b].violations;
              return va < vb || (va == vb && a < b);
            });
  for (std::size_t i = 0; i < order_.size(); ++i) {
    if (order_[i] == i) {
      continue;
    }
    Individual held = std::move(merged[i]);
    std::size_t j = i;
    for (std::size_t from = order_[j]; from != i; from = order_[j]) {
      merged[j] = std::move(merged[from]);
      order_[j] = j;
      j = from;
    }
    merged[j] = std::move(held);
    order_[j] = j;
  }
  const auto feasible = static_cast<std::size_t>(
      std::find_if(merged.begin(), merged.end(),
                   [](const Individual& ind) { return ind.violations > 0; }) -
      merged.begin());
  const std::size_t keep =
      std::min(merged.size(), std::max(feasible, config_.population_size));
  return std::span<Individual>(merged).first(keep);
}

const Individual& NsgaBase::tournament(const Population& population,
                                       Rng& rng) {
  const Individual& a = population[rng.uniform_index(population.size())];
  const Individual& b = population[rng.uniform_index(population.size())];
  if (a.rank != b.rank) {
    return a.rank < b.rank ? a : b;
  }
  return rng.bernoulli(0.5) ? a : b;
}

void NsgaBase::absorb_stats(telemetry::GenerationRow& row,
                            const TaskStats& stats) {
  using telemetry::Counter;
  const telemetry::CounterBlock& c = stats.counters;
  row.evaluations += stats.evaluations;
  row.repair_invocations += stats.repairs;
  row.full_rebuilds += static_cast<std::size_t>(c[Counter::kStateRebuilds]);
  row.delta_moves += static_cast<std::size_t>(c[Counter::kDeltaMoves]);
  row.rebases += static_cast<std::size_t>(c[Counter::kStateRebases]);
  row.repaired +=
      static_cast<std::size_t>(c[Counter::kRepairedIndividuals]);
  row.unrepairable +=
      static_cast<std::size_t>(c[Counter::kUnrepairableIndividuals]);
  row.tabu_moves_tried +=
      static_cast<std::size_t>(c[Counter::kTabuMovesTried]);
  row.tabu_moves_accepted +=
      static_cast<std::size_t>(c[Counter::kTabuMovesAccepted]);
  row.seconds_variation += stats.seconds_variation;
  row.seconds_repair += stats.seconds_repair;
  row.seconds_evaluate += stats.seconds_evaluate;
}

void NsgaBase::repair_evaluate(Individual& ind, Rng& rng, TaskStats& stats,
                               Arena& arena) {
  const bool tracing = config_.collect_trace;
  const bool do_repair =
      config_.constraint_mode == ConstraintMode::kRepair &&
      config_.repair_offspring;
  PlacementState& state = *arena.state;
  {
    telemetry::ScopedTimer timer(tracing ? &stats.seconds_evaluate
                                         : nullptr);
    state.rebuild(ind.genes);
  }
  if (do_repair) {
    // The repair keeps every accumulator current, so the read-out below
    // IS the evaluation of the repaired genes.  The genes are copied
    // back whatever the hook did: a repair that closes with a rebuild
    // (CpRepair) leaves no applied moves to tell it by.
    {
      telemetry::ScopedTimer timer(tracing ? &stats.seconds_repair
                                           : nullptr);
      repair_(state, rng);
    }
    ++stats.repairs;
    ind.genes = state.placement().genes();
  }
  ind.objectives = state.objectives().as_array();
  ind.violations = state.total_violations();
  ++stats.evaluations;
}

void NsgaBase::variation_task(const Population& parents, const PmTable& pm,
                              MatingTask& task, Individual* child_a,
                              Individual* child_b, Arena& arena) {
  const SbxParams sbx;  // Table III
  const std::int32_t max_gene = problem_->max_gene();
  Rng& rng = task.rng;

  const Individual& parent_a = parents[task.parent_a];
  const Individual& parent_b = parents[task.parent_b];
  const bool tracing = config_.collect_trace;
  // Variation reads the parents' genes in place; only a parent that
  // actually goes through repair (paper Fig. 4: parents that "do not
  // respect users constraints") is rebuilt on the arena state, repaired
  // there like an offspring, and copied out into the arena's reusable
  // buffer — feasible parents cost no copy at all.
  const std::vector<std::int32_t>* genes_a = &parent_a.genes;
  const std::vector<std::int32_t>* genes_b = &parent_b.genes;
  if (config_.constraint_mode == ConstraintMode::kRepair &&
      config_.repair_parents) {
    telemetry::ScopedTimer timer(tracing ? &task.stats.seconds_repair
                                         : nullptr);
    PlacementState& state = *arena.state;
    const auto repair_parent = [&](const std::vector<std::int32_t>& genes,
                                   std::vector<std::int32_t>& repaired) {
      state.rebuild(genes);
      repair_(state, rng);
      ++task.stats.repairs;
      repaired = state.placement().genes();
      return &repaired;
    };
    if (parent_a.violations > 0) {
      genes_a = repair_parent(parent_a.genes, arena.genes_a);
    }
    if (parent_b.violations > 0) {
      genes_b = repair_parent(parent_b.genes, arena.genes_b);
    }
  }

  // A dropped second child (odd population size) skips variation and
  // repair entirely; the task stream is private, so skipping consumes no
  // draws any other task depends on.
  std::vector<std::int32_t>& second_genes =
      child_b != nullptr ? child_b->genes : arena.genes_discard;
  {
    telemetry::ScopedTimer timer(tracing ? &task.stats.seconds_variation
                                         : nullptr);
    sbx_crossover(*genes_a, *genes_b, child_a->genes, second_genes, max_gene,
                  sbx, rng);
    polynomial_mutation(child_a->genes, pm, rng);
    if (child_b != nullptr) {
      polynomial_mutation(child_b->genes, pm, rng);
    }
  }
  repair_evaluate(*child_a, rng, task.stats, arena);
  if (child_b != nullptr) {
    repair_evaluate(*child_b, rng, task.stats, arena);
  }
}

template <class Fn>
void NsgaBase::run_tasks(ThreadPool* pool, std::size_t count, const Fn& fn) {
  if (pool == nullptr || count < 2) {
    for (std::size_t i = 0; i < count; ++i) {
      fn(0, i);
    }
  } else {
    pool->parallel_for_slots(0, count, fn);
  }
}

NsgaBase::Result NsgaBase::run(std::uint64_t seed) {
  Rng rng(seed);
  ThreadPool* pool = evaluation_pool();
  Stopwatch budget_timer;

  // Thread-affine arenas: one full-tracking state (plus gene scratch) per
  // pool slot over the problem's shared tables, built here, before any task
  // fans out, and held for the whole run.  Every parallel phase below
  // hands each participating thread a stable slot (parallel_for_slots),
  // so a task reaches its scratch without locks.
  const std::size_t slot_count = pool != nullptr ? pool->size() : 1;
  arenas_ = std::vector<Arena>(slot_count);
  for (Arena& arena : arenas_) {
    arena.state.emplace(PlacementState(problem_->instance(), {},
                                       StateTracking::kFull,
                                       problem_->tables()));
  }

  Result result;
  const bool tracing = config_.collect_trace;
  result.trace.seed = seed;

  const std::int32_t max_gene = problem_->max_gene();
  const PmTable pm_table(max_gene, PmParams{});  // Table III

  // Initial population.  Serial phase: every main-stream draw (gene
  // randomisation, warm start) happens here in a fixed order.
  Population population(config_.population_size);
  for (Individual& ind : population) {
    ind.genes.resize(problem_->gene_count());
    randomize_genes(ind.genes, max_gene, rng);
  }
  if (config_.warm_start) {
    // Seed the incumbent so the migration objective can prefer "stay".
    std::vector<std::int32_t> warm = problem_->warm_start_genes(rng);
    if (!warm.empty()) {
      population.front().genes = std::move(warm);
    }
  }
  if (!config_.seed_genes.empty()) {
    // Cross-run seeds (a previous run's front): slot them in after the
    // incumbent, capped at half the population so exploration survives.
    // Wrong-length vectors are skipped (the VM set changed shape in a
    // way the caller's compaction could not track); out-of-range genes
    // are clamped and rejected genes randomised, exactly like the
    // incumbent's (problem.cpp).  Keeping kRejected here would be
    // poison: rejection costs nothing in objective space, so one
    // reject-heavy seed dominates the front and a steady-state run
    // (simulator fronts are padded with kRejected for every arrival)
    // collapses to rejecting all traffic.
    std::size_t slot = config_.warm_start ? 1 : 0;
    const std::size_t cap =
        std::min(population.size() / 2,
                 config_.seed_genes.size() + slot);
    for (const std::vector<std::int32_t>& seed_vec : config_.seed_genes) {
      if (slot >= cap) {
        break;
      }
      if (seed_vec.size() != problem_->gene_count()) {
        continue;
      }
      Individual& ind = population[slot++];
      ind.genes = seed_vec;
      for (std::int32_t& g : ind.genes) {
        g = g < 0 ? static_cast<std::int32_t>(rng.uniform_int(0, max_gene))
                  : std::min(g, max_gene);
      }
    }
  }
  // Parallel phase: in repair mode initial individuals are repaired too,
  // so the search starts from the feasible region; evaluation rides in
  // the same task.  Each task's telemetry lands in its own counter
  // block; the serial fold below keeps the tallies (and the trace row)
  // deterministic at any thread count.
  telemetry::GenerationRow init_row;
  {
    std::vector<TaskStats> stats(population.size());
    const Rng init_base = rng;
    run_tasks(pool, population.size(), [&](std::size_t slot, std::size_t i) {
      telemetry::ScopedSink sink(stats[i].counters);
      Rng task_rng = init_base.child_stream(i);
      repair_evaluate(population[i], task_rng, stats[i], arenas_[slot]);
    });
    for (const TaskStats& s : stats) {
      result.repair_invocations += s.repairs;
      result.evaluations += s.evaluations;
      absorb_stats(init_row, s);
    }
  }

  // Rank the initial population so the first tournament has information.
  // environmental_selection moves the survivors out of its input, and the
  // input is discarded right after — no copy needed.
  {
    telemetry::ScopedTimer timer(tracing ? &init_row.seconds_selection
                                         : nullptr);
    Population ranked;
    environmental_selection(population, ranked, rng);
    population = std::move(ranked);
  }
  if (tracing) {
    stamp_population_summary(population, init_row);
    init_row.generation = 0;
    result.trace.rows.push_back(init_row);
  }

  // Generation buffers, reused by every generation: the tasks, the
  // offspring (each with a loser's gene buffer, below), the merged
  // population and the survivors, which are `population` itself.
  const std::size_t pair_count = (config_.population_size + 1) / 2;
  std::vector<MatingTask> tasks;
  tasks.reserve(pair_count);
  Population offspring(config_.population_size);
  Population merged;
  merged.reserve(2 * config_.population_size);

  while (result.evaluations < config_.max_evaluations) {
    // Anytime exit: over budget, surrender with the best front so far
    // (the generation in flight always completes — partial generations
    // would make the survivor set depend on wall time mid-selection).
    if (config_.time_limit_seconds > 0.0 &&
        budget_timer.elapsed_seconds() >= config_.time_limit_seconds) {
      result.hit_time_limit = true;
      break;
    }
    telemetry::GenerationRow row;
    row.generation = result.generations + 1;

    // Phase 1 (serial): tournament draws consume the main stream in a
    // fixed order regardless of thread count; each pair gets its own
    // counter-derived child stream for everything downstream.
    tasks.clear();
    {
      telemetry::ScopedTimer timer(tracing ? &row.seconds_tournament
                                           : nullptr);
      for (std::size_t p = 0; p < pair_count; ++p) {
        const std::size_t index_a = static_cast<std::size_t>(
            &tournament(population, rng) - population.data());
        const std::size_t index_b = static_cast<std::size_t>(
            &tournament(population, rng) - population.data());
        tasks.push_back(
            MatingTask{index_a, index_b, rng.child_stream(p), TaskStats{}});
      }
    }

    // Phase 2 (parallel): each pair's crossover, mutation, repair, and
    // evaluation run as one fused task writing only offspring slots
    // 2p / 2p+1 — deterministic for any thread count.
    run_tasks(pool, pair_count, [&](std::size_t slot, std::size_t p) {
      telemetry::ScopedSink sink(tasks[p].stats.counters);
      Individual* child_b = 2 * p + 1 < offspring.size()
                                ? &offspring[2 * p + 1]
                                : nullptr;
      variation_task(population, pm_table, tasks[p], &offspring[2 * p],
                     child_b, arenas_[slot]);
    });
    for (const MatingTask& task : tasks) {
      result.repair_invocations += task.stats.repairs;
      result.evaluations += task.stats.evaluations;
      absorb_stats(row, task.stats);
    }

    merged.clear();
    std::move(population.begin(), population.end(),
              std::back_inserter(merged));
    std::move(offspring.begin(), offspring.end(),
              std::back_inserter(merged));

    {
      telemetry::ScopedTimer timer(tracing ? &row.seconds_selection
                                           : nullptr);
      population.clear();
      environmental_selection(merged, population, rng);
    }
    // The survivors were moved out of `merged`; the losers still hold
    // their genes.  Their buffers become the next offspring's (variation
    // overwrites every gene), and every other field starts as in a new
    // Individual.
    std::size_t donor = 0;
    for (Individual& child : offspring) {
      while (donor < merged.size() && merged[donor].genes.empty()) {
        ++donor;
      }
      std::vector<std::int32_t> genes;
      if (donor < merged.size()) {
        genes = std::move(merged[donor++].genes);
      }
      child = Individual{};
      child.genes = std::move(genes);
    }
    ++result.generations;
    if (tracing) {
      stamp_population_summary(population, row);
      result.trace.rows.push_back(row);
    }
  }

  // Final front: rank-0 members under the engine's dominance.  The sort
  // only stamps ranks, so it can run on the population in place; only the
  // front members themselves are copied out.
  const Fronts& fronts = sort_fronts(population);
  IAAS_EXPECT(fronts.size() > 0, "population cannot be empty");
  result.front.reserve(fronts[0].size());
  for (std::size_t idx : fronts[0]) {
    result.front.push_back(population[idx]);
  }
  result.population = std::move(population);
  arenas_.clear();
  return result;
}

}  // namespace iaas
