// Dense two-phase primal simplex for linear programs in the form
//
//     minimise  c^T x
//     subject to  a_i^T x  {<=, =, >=}  b_i      (i = 1..m)
//                 x >= 0
//
// Used to solve the LP relaxation of the allocation ILP (LinModel):
// the relaxation's optimum is a certified lower bound on any integral
// allocation cost, which the optimality-gap bench grades the heuristics
// against.  Dense tableau with Bland's anti-cycling rule — sized for the
// small/medium instances where such certificates are interesting, not
// for the 800-server scale (that is the point of Fig. 8).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lp/lin_expr.h"

namespace iaas {

enum class LpStatus : std::uint8_t {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

std::string lp_status_name(LpStatus status);

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;  // per structural variable
  std::size_t iterations = 0;
};

class SimplexSolver {
 public:
  // `variables` = number of structural (x) variables.
  explicit SimplexSolver(std::size_t variables);

  // Objective coefficient (default 0). Minimisation.
  void set_objective(VarId var, double coeff);

  // Add one constraint row: lhs relation rhs.
  void add_constraint(const LinExpr& lhs, Relation relation, double rhs);

  LpSolution solve(std::size_t max_iterations = 0) const;  // 0 = auto

 private:
  struct Row {
    std::vector<LinTerm> terms;
    Relation relation;
    double rhs;
  };

  std::size_t variables_;
  std::vector<double> objective_;
  std::vector<Row> rows_;
};

// LP relaxation of the allocation model: builds the LinModel rows with
// x, y in [0, 1] and returns the relaxation optimum — a lower bound on
// the linear cost (usage + exploitation + migration) of every complete
// integral placement.
struct Instance;  // fwd
LpSolution solve_lp_relaxation(const class LinModel& model,
                               std::size_t max_iterations = 0);

}  // namespace iaas
