// Cross-layer telemetry & run-trace subsystem (DESIGN.md §9).
//
// Two pieces, both deliberately tiny:
//
//   * a fixed set of named **counters** (enum-indexed — no hashing on the
//     hot path).  Increments go through a thread-local `CounterBlock*`
//     sink installed with `ScopedSink`; with no sink installed the
//     increment is a single load + branch (the null-sink fast path).
//     Per-thread accumulation means no atomics and no ordering
//     dependence: the EA gives each task its own block and folds them
//     serially into its trace rows, so tallies are bit-identical for
//     any thread count.
//   * a structured **RunTrace**: one row per EA generation recording
//     what the search actually did — evaluations, delta moves vs full
//     rebuilds, repair outcomes, tabu move counts, front size, best
//     objective vector, and phase wall times — described once by its
//     field list (common/fields), with a CSV emitter here (reusing
//     common/csv) and JSON/binary codecs in io.  Every counter is one
//     of its columns; a run is explained by its own rows.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/fields.h"

namespace iaas::telemetry {

// Hot-path counters, each read into one GenerationRow column
// (NsgaBase::absorb_stats).  Kept to one small fixed enum so a
// CounterBlock is a plain array.
enum class Counter : std::size_t {
  kStateRebuilds,            // full PlacementState rebuilds
  kDeltaMoves,               // incremental apply_move updates
  kStateRebases,             // gene-diff rebase repositions (not rebuilds)
  kRepairedIndividuals,      // entered infeasible, left feasible
  kUnrepairableIndividuals,  // left with violations after all passes
  kTabuMovesTried,           // candidate relocations examined
  kTabuMovesAccepted,        // relocations actually applied
  kCount,
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

struct CounterBlock {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t& operator[](Counter c) {
    return values[static_cast<std::size_t>(c)];
  }
  std::uint64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
};

// Increment counter `c` on the calling thread's installed sink; dropped
// when no sink is installed.
void count(Counter c, std::uint64_t n = 1);

// Installs `block` as the calling thread's counter sink for the scope;
// restores the previous sink on exit (sinks nest).  The owner reads the
// block when the scope ends.
class ScopedSink {
 public:
  explicit ScopedSink(CounterBlock& block);
  ~ScopedSink();
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  CounterBlock* previous_;
};

// Adds the scope's wall time to `*target` on destruction; a null target
// disables the clock calls entirely (how tracing-off runs skip the
// per-offspring timer cost).
class ScopedTimer {
 public:
  explicit ScopedTimer(double* target)
      : target_(target),
        start_(target != nullptr ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimer() {
    if (target_ != nullptr) {
      *target_ += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* target_;
  std::chrono::steady_clock::time_point start_;
};

// One EA generation as observed by the engine.  Generation 0 is the
// initial population (no tournament/variation).  The counter fields are
// summed serially from per-task blocks, so they are deterministic for a
// given seed at any thread count; the seconds fields are per-task wall
// times summed over tasks (CPU-seconds on the parallel phases) and are
// *not* deterministic.
struct GenerationRow {
  std::size_t generation = 0;
  std::size_t evaluations = 0;
  std::size_t full_rebuilds = 0;
  std::size_t delta_moves = 0;
  std::size_t rebases = 0;
  std::size_t repair_invocations = 0;
  std::size_t repaired = 0;
  std::size_t unrepairable = 0;
  std::size_t tabu_moves_tried = 0;
  std::size_t tabu_moves_accepted = 0;
  std::size_t front_size = 0;  // rank-0 members after selection
  std::array<double, 3> best_objectives{};  // min-aggregate survivor
  double seconds_tournament = 0.0;
  double seconds_variation = 0.0;
  double seconds_repair = 0.0;
  double seconds_evaluate = 0.0;
  double seconds_selection = 0.0;
};

// Trace columns: CSV header, JSON "columns" and binary row layout.
template <fields::Of<GenerationRow> Self, typename V>
void visit_fields(Self& r, V& v) {
  using enum fields::Tag;
  v.leaf("generation", r.generation, kDeterministic);
  v.leaf("evaluations", r.evaluations, kDeterministic);
  v.leaf("full_rebuilds", r.full_rebuilds, kCounter);
  v.leaf("delta_moves", r.delta_moves, kCounter);
  v.leaf("rebases", r.rebases, kCounter);
  v.leaf("repair_invocations", r.repair_invocations, kCounter);
  v.leaf("repaired", r.repaired, kCounter);
  v.leaf("unrepairable", r.unrepairable, kCounter);
  v.leaf("tabu_moves_tried", r.tabu_moves_tried, kCounter);
  v.leaf("tabu_moves_accepted", r.tabu_moves_accepted, kCounter);
  v.leaf("front_size", r.front_size, kDeterministic);
  v.leaf("best_usage", r.best_objectives[0], kDeterministic);
  v.leaf("best_downtime", r.best_objectives[1], kDeterministic);
  v.leaf("best_migration", r.best_objectives[2], kDeterministic);
  v.leaf("seconds_tournament", r.seconds_tournament, kWallClock);
  v.leaf("seconds_variation", r.seconds_variation, kWallClock);
  v.leaf("seconds_repair", r.seconds_repair, kWallClock);
  v.leaf("seconds_evaluate", r.seconds_evaluate, kWallClock);
  v.leaf("seconds_selection", r.seconds_selection, kWallClock);
}

struct RunTrace {
  std::string label;       // algorithm / experiment tag
  std::uint64_t seed = 0;  // the run's printed seed
  std::vector<GenerationRow> rows;

  [[nodiscard]] bool empty() const { return rows.empty(); }

  // The GenerationRow field list's keys, and one row's CSV cells.
  static const std::vector<std::string>& columns();
  static std::vector<std::string> row_values(const GenerationRow& row);

  // One CSV file, header + one line per generation (common/csv rules:
  // fails loudly on an unopenable path).
  void write_csv(const std::string& path) const;
};

template <fields::Of<RunTrace> Self, typename V>
void visit_fields(Self& t, V& v) {
  v.leaf("label", t.label, fields::Tag::kLabel);
  v.leaf("seed", t.seed, fields::Tag::kLabel);
  v.table("columns", RunTrace::columns(), "rows", t.rows);
}

}  // namespace iaas::telemetry
