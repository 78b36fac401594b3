// Shared generational engine for NSGA-II and NSGA-III.
//
// Implements the paper's modified-NSGA pipeline (Figs. 3-4): binary
// tournament mating selection, optional repair of invalid parents before
// variation, SBX + PM variation, optional repair of offspring, and
// (mu + lambda) environmental selection supplied by the concrete
// algorithm.  Parents and offspring go through the same repair operator
// on the same path (DESIGN.md §8).
//
// Each generation runs in two phases (DESIGN.md §8).  A cheap serial
// phase draws the parent index pairs by tournament — every draw from the
// run's main RNG stream happens here, in a fixed order — and assigns each
// pair a counter-derived child stream.  The parallel phase then fans each
// pair out over the thread pool: crossover, mutation, parent/offspring
// repair, and objective evaluation fused into one task, dispatched in
// chunks to thread-affine arenas (one PlacementState + gene scratch per pool
// slot, held for the whole run).  Because a task touches only its
// own offspring slots, its own RNG stream, and its slot's arena, and
// every individual is rebuilt from its own genes (never rebased from
// what the arena held: PlacementState::rebase is left to perfbench's
// layer probe), results are bit-identical for a given seed regardless
// of config.threads.
//
// The ConstraintMode selects how strict constraints are honoured — the
// four methods the paper enumerates (ignore/exclude/penalty/repair).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "common/thread_pool.h"
#include "ea/individual.h"
#include "ea/nondominated_sort.h"
#include "ea/nsga_config.h"
#include "ea/operators.h"
#include "ea/problem.h"
#include "model/placement_state.h"

namespace iaas {

// The repair operator (the tabu search of paper Figs. 5-6, or the
// constraint solver of Fig. 8's hybrid): makes the placement held in
// `state` (already rebuilt to the individual's genes, full tracking)
// constraint-compliant, or closer to it, in place.  After it returns,
// the state's genes are the repaired individual and its accumulators are
// read out directly as the evaluation — no second rebuild.  Must be safe
// to call concurrently (one distinct state per call).
using RepairFn = std::function<void(PlacementState&, Rng&)>;

class NsgaBase {
 public:
  struct Result {
    Population population;          // final population
    std::vector<Individual> front;  // rank-0 members under the engine's
                                    // dominance relation
    std::size_t evaluations = 0;
    std::size_t repair_invocations = 0;
    std::size_t generations = 0;
    // True when config.time_limit_seconds stopped the run before
    // max_evaluations: the front is the best found so far, not the
    // full-budget answer (the simulator reports such windows degraded).
    bool hit_time_limit = false;
    // Per-generation decision trace; empty unless config.collect_trace.
    // Counter columns are deterministic at any thread count (summed from
    // per-task blocks in task order); the seconds columns are not.
    telemetry::RunTrace trace;
  };

  // `repair` is required in kRepair mode and unused otherwise.
  NsgaBase(const AllocationProblem& problem, NsgaConfig config,
           RepairFn repair = nullptr);
  virtual ~NsgaBase() = default;

  NsgaBase(const NsgaBase&) = delete;
  NsgaBase& operator=(const NsgaBase&) = delete;

  Result run(std::uint64_t seed);

  [[nodiscard]] const NsgaConfig& config() const { return config_; }

 protected:
  // Fill `next` (empty on entry) with population_size survivors of
  // `merged`; must set rank (and algorithm-specific bookkeeping).
  virtual void environmental_selection(Population& merged, Population& next,
                                       Rng& rng) = 0;

  // Binary tournament for mating. Default: lower rank wins, random tie.
  virtual const Individual& tournament(const Population& population,
                                       Rng& rng);

  // The non-dominated sort under the dominance relation the constraint
  // mode implies (plain, penalised or Deb's constrained dominance).  The
  // fronts live in the engine's scratch until the next call.
  const Fronts& sort_fronts(std::span<Individual> population);

  // kExclude (paper method 1): drop infeasible individuals; if fewer
  // feasible than population_size remain, keep the least-violating.
  // Orders `merged` by violation count, ties in their order, and returns
  // the kept prefix.  The excluded members stay behind it with their
  // gene buffers, which the next generation's offspring take over.
  std::span<Individual> apply_exclusion(Population& merged);

  // Index scratch of apply_exclusion and of NSGA-II's crowding and
  // truncation, reused by every selection.
  std::vector<std::size_t> order_;

 private:
  // Per-task tallies, accumulated into Result on the serial side so the
  // totals are deterministic (no atomics, no ordering dependence).  The
  // counter block is the task's telemetry sink (installed around the
  // task body) and is folded into the generation's trace row; the
  // seconds fields are only written when collect_trace is on
  // (null-target timers otherwise).
  struct TaskStats {
    std::size_t repairs = 0;
    std::size_t evaluations = 0;
    telemetry::CounterBlock counters;
    double seconds_variation = 0.0;
    double seconds_repair = 0.0;
    double seconds_evaluate = 0.0;
  };

  // Serial-phase product: everything one variation task needs, fixed
  // before the parallel fan-out.
  struct MatingTask {
    std::size_t parent_a;
    std::size_t parent_b;
    Rng rng;  // counter-derived child stream, owned by this task
    TaskStats stats;
  };

  // Thread-affine scratch: one per ThreadPool slot, built for the whole
  // run (DESIGN.md §8).  The state is reused across every individual the
  // slot handles, parents under repair included; the gene buffers hold
  // the repaired parents' copies.  A slot's arena is only ever touched by
  // the participant owning that slot (parallel_for_slots), so no locking.
  struct Arena {
    std::optional<PlacementState> state;
    std::vector<std::int32_t> genes_a;  // parent-repair scratch
    std::vector<std::int32_t> genes_b;
    std::vector<std::int32_t> genes_discard;  // an odd population's
                                              // dropped second child
  };

  // One fused task: (lazily copied + repaired) parents, SBX + PM, repair
  // + evaluate the offspring.  `child_b` is null when the pair's second
  // slot falls outside the offspring population (odd size).
  void variation_task(const Population& parents, const PmTable& pm,
                      MatingTask& task, Individual* child_a,
                      Individual* child_b, Arena& arena);

  // Offspring/initial-individual treatment: one rebuild of the arena's
  // state from the genes, the repair hook when the mode repairs
  // offspring, the state's genes copied back, and the state read out as
  // the evaluation.  What the arena held before never shows.
  void repair_evaluate(Individual& ind, Rng& rng, TaskStats& stats,
                       Arena& arena);

  // Folds one task's tallies into a trace row (serial side only).
  // row.repair_invocations mirrors Result::repair_invocations (every
  // repair call); the repaired/unrepairable columns split the walks that
  // saw violations by outcome.
  static void absorb_stats(telemetry::GenerationRow& row,
                           const TaskStats& stats);

  // Runs fn(slot, i) for i in 0..count serially (slot 0) or over the
  // pool (parallel_for_slots); `slot` indexes arenas_.  A template, so
  // the serial path calls fn without wrapping it in a std::function.
  template <class Fn>
  void run_tasks(ThreadPool* pool, std::size_t count, const Fn& fn);

  ThreadPool* evaluation_pool();

  const AllocationProblem* problem_;
  NsgaConfig config_;
  RepairFn repair_;
  std::unique_ptr<ThreadPool> owned_pool_;
  // Per-slot arenas, populated for the duration of one run().
  std::vector<Arena> arenas_;
  SortScratch sort_scratch_;  // backs sort_fronts' result
};

}  // namespace iaas
