// Das-Dennis structured reference points on the unit simplex and the
// normalisation/association machinery of NSGA-III (Deb & Jain 2014;
// the paper's [28] U-NSGA-III report uses the same construction).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "ea/individual.h"

namespace iaas {

inline constexpr std::size_t kObjectives = 3;
using ObjArray = std::array<double, kObjectives>;

// All points with coordinates i/divisions summing to 1
// (C(divisions + M - 1, M - 1) of them for M objectives).
std::vector<ObjArray> das_dennis_points(std::size_t divisions);

// |dir|^2, summed in axis order.  NSGA-III computes it once per reference
// direction.
double squared_norm(const ObjArray& dir);

// Perpendicular distance from point `p` to the ray through the origin in
// direction `dir` (both in normalised objective space); `dir_norm2` is
// squared_norm(dir).
double perpendicular_distance(const ObjArray& p, const ObjArray& dir,
                              double dir_norm2);

// NSGA-III adaptive normalisation: translate by the ideal point, find the
// extreme points via the achievement scalarising function, intersect the
// hyperplane through them with the axes, divide by the intercepts.
// Returns the normalised objectives of each indexed individual.
class Normalizer {
 public:
  // `members` indexes into `population`; statistics use exactly those.
  void fit(std::span<const Individual> population,
           std::span<const std::size_t> members);

  [[nodiscard]] ObjArray normalize(const ObjArray& objectives) const;

  [[nodiscard]] const ObjArray& ideal() const { return ideal_; }
  [[nodiscard]] const ObjArray& intercepts() const { return intercepts_; }

 private:
  ObjArray ideal_{};
  ObjArray intercepts_{};
};

}  // namespace iaas
