// The three objective terms of the paper's global objective (Eq. 15):
//
//   1. usage & operating cost  (Eq. 22): exploitation cost E_j of the
//      servers put to use plus the usage cost U_j for each hosted VM;
//   2. downtime cost           (Eq. 23): SLA penalty C^U_k whenever the
//      QoS delivered to VM k falls below its guarantee C^Q_k, using the
//      load->QoS decay of Eq. 24;
//   3. migration cost          (Eq. 26): M_k for every VM the new plan
//      moves relative to the previous window's placement.
//
// Interpretation notes (documented deviations from the paper's literal
// formulas, see DESIGN.md §6):
//   * Eq. 22 literally sums E_j per hosted VM; we charge E_j once per
//     *used* server by default — that is what makes consolidation pay, a
//     stated goal of the paper ("reduce the number of servers").  The
//     literal per-VM reading is available via opex_per_vm (ablation).
//   * Eq. 23 literally scales with Q_jl/C^Q_k, which would *reward* QoS
//     degradation; we charge C^U_k * (1 - q/C^Q_k) for q below the
//     guarantee (penalty proportional to the shortfall) and zero above.
//
// The aggregate Z uses equal weights, as the paper does "without loss of
// generality".  The value types live in model/objective_types.h; the
// formulas themselves are implemented once, in the incremental
// PlacementState engine — the Evaluator here is its full-rebuild facade.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>

#include "common/matrix.h"
#include "model/constraint_checker.h"
#include "model/instance.h"
#include "model/objective_types.h"
#include "model/placement.h"
#include "model/placement_state.h"

namespace iaas {

struct Evaluation {
  ObjectiveVector objectives;
  ViolationReport violations;
};

// Evaluates placements against one instance.  A thin wrapper that drives
// a full PlacementState rebuild per call; the state's accumulators double
// as reusable scratch, so a hot loop (EA population evaluation) performs
// no per-call allocation.  Create one Evaluator per thread; callers that
// score many single-VM relocations of the *same* placement should use
// state() and PlacementState::try_move instead of repeated full calls.
class Evaluator {
 public:
  // `tables` lets an engine's per-slot evaluators share one immutable
  // StateTables (the instance-derived SoA flattening) instead of
  // rebuilding it per state.
  explicit Evaluator(const Instance& instance, ObjectiveOptions options = {},
                     std::shared_ptr<const StateTables> tables = nullptr)
      : state_(instance, options, StateTracking::kFull, std::move(tables)) {}

  // Objectives + violations in one pass (loads are shared work).
  Evaluation evaluate(const Placement& placement) {
    return evaluate_genes(placement.genes());
  }

  // Same, straight from a gene vector (EA individuals) — avoids copying
  // the genes into a temporary Placement.
  Evaluation evaluate_genes(std::span<const std::int32_t> genes);

  // Objectives only.
  ObjectiveVector objectives(const Placement& placement);

  // Post-evaluate inspection (valid until the next evaluate call).
  [[nodiscard]] const Matrix<double>& last_loads() const {
    return state_.loads();
  }
  [[nodiscard]] const Matrix<double>& last_qos() const {
    return state_.qos();
  }

  // The underlying delta engine, positioned at the last evaluated
  // placement.
  [[nodiscard]] PlacementState& state() { return state_; }
  [[nodiscard]] const PlacementState& state() const { return state_; }

  [[nodiscard]] const Instance& instance() const {
    return state_.instance();
  }
  [[nodiscard]] const ObjectiveOptions& options() const {
    return state_.options();
  }

 private:
  PlacementState state_;
};

}  // namespace iaas
