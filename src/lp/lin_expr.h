// Sparse linear expressions over integer model variables — the building
// block of the integer-programming formulation (paper Eqs. 4-21).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iaas {

// Variable handle inside a LinModel.
struct VarId {
  std::uint32_t index = 0;
  friend bool operator==(VarId, VarId) = default;
};

struct LinTerm {
  VarId var;
  double coeff;
};

class LinExpr {
 public:
  LinExpr() = default;

  LinExpr& add(VarId var, double coeff) {
    terms_.push_back({var, coeff});
    return *this;
  }

  [[nodiscard]] const std::vector<LinTerm>& terms() const { return terms_; }

  // Value of the expression under a full assignment of variable values.
  [[nodiscard]] double value(const std::vector<double>& assignment) const {
    double v = 0.0;
    for (const LinTerm& t : terms_) {
      v += t.coeff * assignment[t.var.index];
    }
    return v;
  }

 private:
  std::vector<LinTerm> terms_;
};

enum class Relation : std::uint8_t { kLessEqual, kEqual, kGreaterEqual };

struct LinConstraint {
  LinExpr lhs;
  Relation relation;
  double rhs;
  std::string name;

  [[nodiscard]] bool satisfied(const std::vector<double>& assignment,
                               double eps = 1e-9) const {
    const double v = lhs.value(assignment);
    switch (relation) {
      case Relation::kLessEqual:
        return v <= rhs + eps;
      case Relation::kEqual:
        return v >= rhs - eps && v <= rhs + eps;
      case Relation::kGreaterEqual:
        return v >= rhs - eps;
    }
    return false;
  }
};

}  // namespace iaas
