#include "tabu/tabu_search.h"

#include <limits>
#include <optional>

#include "common/expect.h"
#include "common/telemetry.h"
#include "model/placement_state.h"
#include "tabu/tabu_list.h"

namespace iaas {

TabuSearch::TabuSearch(const Instance& instance, TabuSearchOptions options,
                       ObjectiveOptions objective_options,
                       std::shared_ptr<const StateTables> tables)
    : instance_(&instance),
      options_(options),
      objective_options_(objective_options),
      tables_(tables ? std::move(tables)
                     : std::make_shared<const StateTables>(instance)) {}

TabuSearchResult TabuSearch::improve(const Placement& start, Rng& rng) {
  const Instance& inst = *instance_;
  IAAS_EXPECT(start.vm_count() == inst.n(),
              "placement size mismatch with instance");

  TabuList tabu(options_.tenure);

  // Standalone runs (no EA task sink on this thread) tally into a local
  // block flushed to the global registry on exit; inside an EA task the
  // counts flow to that task's block instead, keeping traces
  // deterministic.
  telemetry::CounterBlock local_counters;
  std::optional<telemetry::ScopedSink> own_sink;
  if (!telemetry::sink_installed()) {
    own_sink.emplace(local_counters);
  }

  // One delta engine carries the walk; every candidate move is scored via
  // try_move in O(affected servers) instead of a full re-evaluation.
  PlacementState state(inst, objective_options_, StateTracking::kFull,
                       tables_);
  state.rebuild(start);

  TabuSearchResult result;
  result.best = start;
  result.best_objectives = state.objectives();

  std::size_t stall = 0;
  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    ++result.iterations;

    // Sample candidate relocations; keep the best admissible one.
    double best_move_cost = std::numeric_limits<double>::infinity();
    std::size_t best_vm = 0;
    std::int32_t best_target = Placement::kRejected;

    for (std::size_t s = 0; s < options_.neighbourhood_samples; ++s) {
      const std::size_t k = rng.uniform_index(inst.n());
      if (!state.placement().is_assigned(k)) {
        continue;
      }
      const auto j =
          static_cast<std::int32_t>(rng.uniform_index(inst.m()));
      if (j == state.placement().server_of(k)) {
        continue;
      }
      if (!state.is_valid_allocation(k, static_cast<std::size_t>(j))) {
        continue;
      }
      telemetry::count(telemetry::Counter::kTabuMovesTried);
      const ObjectiveDelta trial = state.try_move(k, j);

      const bool is_tabu = tabu.is_tabu(static_cast<std::uint32_t>(k), j);
      const bool aspires =
          options_.aspiration &&
          trial.objectives.aggregate() < result.best_objectives.aggregate();
      if (is_tabu && !aspires) {
        continue;
      }
      if (trial.objectives.aggregate() < best_move_cost) {
        best_move_cost = trial.objectives.aggregate();
        best_vm = k;
        best_target = j;
      }
    }

    if (best_target == Placement::kRejected) {
      ++stall;
      if (stall >= options_.stall_limit) {
        break;
      }
      continue;
    }

    // Apply the move (tabu search accepts the best admissible move even
    // when it worsens the incumbent — that is how it escapes local
    // optima).
    const std::int32_t from = state.placement().server_of(best_vm);
    telemetry::count(telemetry::Counter::kTabuMovesAccepted);
    state.apply_move(best_vm, best_target);
    tabu.forbid(static_cast<std::uint32_t>(best_vm), from);

    if (state.aggregate() < result.best_objectives.aggregate() - 1e-12) {
      result.best = state.placement();
      result.best_objectives = state.objectives();
      ++result.improving_moves;
      stall = 0;
    } else {
      ++stall;
      if (stall >= options_.stall_limit) {
        break;
      }
    }
  }
  if (own_sink) {
    telemetry::Registry::global().flush_counters(local_counters);
  }
  return result;
}

}  // namespace iaas
