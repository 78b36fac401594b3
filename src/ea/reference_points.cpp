#include "ea/reference_points.h"

#include <cmath>
#include <limits>

#include "common/expect.h"

namespace iaas {
namespace {

void das_dennis_recurse(std::size_t divisions, std::size_t dim,
                        std::size_t remaining, ObjArray& work,
                        std::vector<ObjArray>& out) {
  if (dim == kObjectives - 1) {
    work[dim] = static_cast<double>(remaining) /
                static_cast<double>(divisions);
    out.push_back(work);
    return;
  }
  for (std::size_t i = 0; i <= remaining; ++i) {
    work[dim] = static_cast<double>(i) / static_cast<double>(divisions);
    das_dennis_recurse(divisions, dim + 1, remaining - i, work, out);
  }
}

// Solve the 3x3 system A b = 1 by Gaussian elimination with partial
// pivoting; returns false when (near-)singular.
bool solve3(const std::array<ObjArray, kObjectives>& rows, ObjArray& b) {
  double a[kObjectives][kObjectives + 1];
  for (std::size_t r = 0; r < kObjectives; ++r) {
    for (std::size_t c = 0; c < kObjectives; ++c) {
      a[r][c] = rows[r][c];
    }
    a[r][kObjectives] = 1.0;
  }
  for (std::size_t col = 0; col < kObjectives; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < kObjectives; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) {
        pivot = r;
      }
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      return false;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c <= kObjectives; ++c) {
        std::swap(a[pivot][c], a[col][c]);
      }
    }
    for (std::size_t r = 0; r < kObjectives; ++r) {
      if (r == col) {
        continue;
      }
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c <= kObjectives; ++c) {
        a[r][c] -= f * a[col][c];
      }
    }
  }
  for (std::size_t r = 0; r < kObjectives; ++r) {
    b[r] = a[r][kObjectives] / a[r][r];
  }
  return true;
}

}  // namespace

std::vector<ObjArray> das_dennis_points(std::size_t divisions) {
  IAAS_EXPECT(divisions >= 1, "need at least one division");
  std::vector<ObjArray> out;
  ObjArray work{};
  das_dennis_recurse(divisions, 0, divisions, work, out);
  return out;
}

double squared_norm(const ObjArray& dir) {
  double norm2 = 0.0;
  for (std::size_t i = 0; i < kObjectives; ++i) {
    norm2 += dir[i] * dir[i];
  }
  return norm2;
}

double perpendicular_distance(const ObjArray& p, const ObjArray& dir,
                              double dir_norm2) {
  double dot = 0.0;
  for (std::size_t i = 0; i < kObjectives; ++i) {
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

void Normalizer::fit(std::span<const Individual> population,
                     std::span<const std::size_t> members) {
  IAAS_EXPECT(!members.empty(), "normalizer needs at least one member");

  for (std::size_t i = 0; i < kObjectives; ++i) {
    ideal_[i] = std::numeric_limits<double>::infinity();
  }
  for (std::size_t idx : members) {
    for (std::size_t i = 0; i < kObjectives; ++i) {
      ideal_[i] = std::min(ideal_[i], population[idx].objectives[i]);
    }
  }

  // Extreme point per axis: minimiser of the achievement scalarising
  // function with the axis weight vector.
  std::array<ObjArray, kObjectives> extremes{};
  for (std::size_t axis = 0; axis < kObjectives; ++axis) {
    double best_asf = std::numeric_limits<double>::infinity();
    for (std::size_t idx : members) {
      double asf = 0.0;
      for (std::size_t i = 0; i < kObjectives; ++i) {
        const double w = (i == axis) ? 1.0 : 1e-6;
        const double translated =
            population[idx].objectives[i] - ideal_[i];
        asf = std::max(asf, translated / w);
      }
      if (asf < best_asf) {
        best_asf = asf;
        for (std::size_t i = 0; i < kObjectives; ++i) {
          extremes[axis][i] = population[idx].objectives[i] - ideal_[i];
        }
      }
    }
  }

  ObjArray plane{};
  const bool solved = solve3(extremes, plane);
  bool valid = solved;
  if (solved) {
    for (std::size_t i = 0; i < kObjectives; ++i) {
      const double intercept = 1.0 / plane[i];
      if (!(intercept > 1e-12) || !std::isfinite(intercept)) {
        valid = false;
        break;
      }
      intercepts_[i] = intercept;
    }
  }
  if (!valid) {
    // Degenerate front: fall back to the per-axis max spread.
    for (std::size_t i = 0; i < kObjectives; ++i) {
      double max_v = 0.0;
      for (std::size_t idx : members) {
        max_v = std::max(max_v, population[idx].objectives[i] - ideal_[i]);
      }
      intercepts_[i] = max_v > 1e-12 ? max_v : 1.0;
    }
  }
}

ObjArray Normalizer::normalize(const ObjArray& objectives) const {
  ObjArray out{};
  for (std::size_t i = 0; i < kObjectives; ++i) {
    out[i] = (objectives[i] - ideal_[i]) / intercepts_[i];
  }
  return out;
}

}  // namespace iaas
