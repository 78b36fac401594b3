#include "lp/simplex.h"

#include <cmath>
#include <limits>

#include "common/expect.h"
#include "lp/lin_model.h"

namespace iaas {
namespace {

constexpr double kEps = 1e-9;

}  // namespace

std::string lp_status_name(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

SimplexSolver::SimplexSolver(std::size_t variables)
    : variables_(variables), objective_(variables, 0.0) {}

void SimplexSolver::set_objective(VarId var, double coeff) {
  IAAS_EXPECT(var.index < variables_, "objective variable out of range");
  objective_[var.index] = coeff;
}

void SimplexSolver::add_constraint(const LinExpr& lhs, Relation relation,
                                   double rhs) {
  Row row;
  row.terms = lhs.terms();
  for (const LinTerm& t : row.terms) {
    IAAS_EXPECT(t.var.index < variables_, "constraint variable out of range");
  }
  row.relation = relation;
  row.rhs = rhs;
  rows_.push_back(std::move(row));
}

LpSolution SimplexSolver::solve(std::size_t max_iterations) const {
  const std::size_t m = rows_.size();

  // Column layout: [structural | slack/surplus | artificial]; every row
  // is normalised to rhs >= 0 first.
  std::size_t slack_count = 0;
  std::size_t artificial_count = 0;
  struct RowPlan {
    double sign;       // +1 or -1 applied to the whole row
    Relation relation;  // after sign normalisation
    std::int64_t slack = -1;
    std::int64_t artificial = -1;
  };
  std::vector<RowPlan> plans(m);
  for (std::size_t i = 0; i < m; ++i) {
    RowPlan& plan = plans[i];
    plan.sign = rows_[i].rhs < 0.0 ? -1.0 : 1.0;
    plan.relation = rows_[i].relation;
    if (plan.sign < 0.0) {
      if (plan.relation == Relation::kLessEqual) {
        plan.relation = Relation::kGreaterEqual;
      } else if (plan.relation == Relation::kGreaterEqual) {
        plan.relation = Relation::kLessEqual;
      }
    }
    switch (plan.relation) {
      case Relation::kLessEqual:
        plan.slack = static_cast<std::int64_t>(slack_count++);
        break;
      case Relation::kGreaterEqual:
        plan.slack = static_cast<std::int64_t>(slack_count++);
        plan.artificial = static_cast<std::int64_t>(artificial_count++);
        break;
      case Relation::kEqual:
        plan.artificial = static_cast<std::int64_t>(artificial_count++);
        break;
    }
  }

  const std::size_t slack_base = variables_;
  const std::size_t artificial_base = slack_base + slack_count;
  const std::size_t total = artificial_base + artificial_count;

  // Dense tableau rows + two objective rows (phase 1 and phase 2).
  std::vector<std::vector<double>> tab(m, std::vector<double>(total + 1, 0.0));
  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) {
    const RowPlan& plan = plans[i];
    for (const LinTerm& t : rows_[i].terms) {
      tab[i][t.var.index] += plan.sign * t.coeff;
    }
    tab[i][total] = plan.sign * rows_[i].rhs;
    if (plan.slack >= 0) {
      const double coeff =
          plan.relation == Relation::kGreaterEqual ? -1.0 : 1.0;
      tab[i][slack_base + static_cast<std::size_t>(plan.slack)] = coeff;
    }
    if (plan.artificial >= 0) {
      const std::size_t col =
          artificial_base + static_cast<std::size_t>(plan.artificial);
      tab[i][col] = 1.0;
      basis[i] = col;
    } else {
      basis[i] = slack_base + static_cast<std::size_t>(plan.slack);
    }
  }

  // Objective rows as reduced-cost vectors (z-row form: start from the
  // cost coefficients, then eliminate the basic columns).
  std::vector<double> phase2(total + 1, 0.0);
  for (std::size_t v = 0; v < variables_; ++v) {
    phase2[v] = objective_[v];
  }
  std::vector<double> phase1(total + 1, 0.0);
  for (std::size_t a = 0; a < artificial_count; ++a) {
    phase1[artificial_base + a] = 1.0;
  }
  // Eliminate the initial basic (artificial) columns from phase 1.
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] >= artificial_base) {
      for (std::size_t c = 0; c <= total; ++c) {
        phase1[c] -= tab[i][c];
      }
    }
  }

  if (max_iterations == 0) {
    max_iterations = 100 * (m + total) + 1000;
  }

  LpSolution solution;
  auto pivot = [&](std::size_t row, std::size_t col,
                   std::vector<double>& obj1, std::vector<double>& obj2) {
    const double p = tab[row][col];
    for (std::size_t c = 0; c <= total; ++c) {
      tab[row][c] /= p;
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (r == row || std::fabs(tab[r][col]) < kEps) {
        continue;
      }
      const double f = tab[r][col];
      for (std::size_t c = 0; c <= total; ++c) {
        tab[r][c] -= f * tab[row][c];
      }
    }
    for (std::vector<double>* obj : {&obj1, &obj2}) {
      const double f = (*obj)[col];
      if (std::fabs(f) < kEps) {
        continue;
      }
      for (std::size_t c = 0; c <= total; ++c) {
        (*obj)[c] -= f * tab[row][c];
      }
    }
    basis[row] = col;
  };

  // Runs simplex iterations on `obj` until optimal / unbounded / limit.
  // `allowed_cols` bounds the entering choice (artificials excluded in
  // phase 2).  Returns the terminating status.
  auto iterate = [&](std::vector<double>& obj, std::vector<double>& other,
                     std::size_t allowed_cols) {
    for (;;) {
      if (solution.iterations >= max_iterations) {
        return LpStatus::kIterationLimit;
      }
      // Bland's rule: first column with a negative reduced cost.
      std::size_t entering = total;
      for (std::size_t c = 0; c < allowed_cols; ++c) {
        if (obj[c] < -kEps) {
          entering = c;
          break;
        }
      }
      if (entering == total) {
        return LpStatus::kOptimal;
      }
      // Ratio test; Bland tie-break on the smallest basis column.
      std::size_t leaving = m;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < m; ++r) {
        if (tab[r][entering] > kEps) {
          const double ratio = tab[r][total] / tab[r][entering];
          if (ratio < best_ratio - kEps ||
              (ratio < best_ratio + kEps &&
               (leaving == m || basis[r] < basis[leaving]))) {
            best_ratio = ratio;
            leaving = r;
          }
        }
      }
      if (leaving == m) {
        return LpStatus::kUnbounded;
      }
      pivot(leaving, entering, obj, other);
      ++solution.iterations;
    }
  };

  // Phase 1: drive the artificial sum to zero.
  if (artificial_count > 0) {
    const LpStatus status = iterate(phase1, phase2, total);
    if (status == LpStatus::kIterationLimit) {
      solution.status = status;
      return solution;
    }
    IAAS_EXPECT(status != LpStatus::kUnbounded,
                "phase-1 objective is bounded below by zero");
    if (-phase1[total] > 1e-6) {  // artificial sum = -phase1 rhs entry
      solution.status = LpStatus::kInfeasible;
      return solution;
    }
    // Pivot out any artificial still (degenerately) basic.
    for (std::size_t r = 0; r < m; ++r) {
      if (basis[r] < artificial_base) {
        continue;
      }
      std::size_t col = artificial_base;
      for (std::size_t c = 0; c < artificial_base; ++c) {
        if (std::fabs(tab[r][c]) > kEps) {
          col = c;
          break;
        }
      }
      if (col < artificial_base) {
        pivot(r, col, phase1, phase2);
        ++solution.iterations;
      }
      // Otherwise the row is redundant; the artificial stays basic at 0
      // and can never re-enter (phase 2 excludes artificial columns).
    }
  }

  // Phase 2: original objective over non-artificial columns.
  const LpStatus status = iterate(phase2, phase1, artificial_base);
  solution.status = status;
  if (status != LpStatus::kOptimal) {
    return solution;
  }

  solution.values.assign(variables_, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    if (basis[r] < variables_) {
      solution.values[basis[r]] = tab[r][total];
    }
  }
  double obj_value = 0.0;
  for (std::size_t v = 0; v < variables_; ++v) {
    obj_value += objective_[v] * solution.values[v];
  }
  solution.objective = obj_value;
  return solution;
}

LpSolution solve_lp_relaxation(const LinModel& model,
                               std::size_t max_iterations) {
  SimplexSolver solver(model.variable_count());
  for (const LinTerm& t : model.objective().terms()) {
    solver.set_objective(t.var, t.coeff);
  }
  for (const LinConstraint& c : model.constraints()) {
    solver.add_constraint(c.lhs, c.relation, c.rhs);
  }
  // Binary relaxation: y_j <= 1 (x <= y <= 1 makes x <= 1 implicit).
  const Instance& inst = model.instance();
  for (std::size_t j = 0; j < inst.m(); ++j) {
    LinExpr bound;
    bound.add(model.y(j), 1.0);
    solver.add_constraint(bound, Relation::kLessEqual, 1.0);
  }
  return solver.solve(max_iterations);
}

}  // namespace iaas
