#include "algo/ideal_point.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/expect.h"

namespace iaas {

std::size_t select_ideal_point(const std::vector<Individual>& front) {
  IAAS_EXPECT(!front.empty(), "cannot select from an empty front");

  // Prefer the feasible subset when it exists.
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (front[i].violations == 0) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    candidates.resize(front.size());
    for (std::size_t i = 0; i < front.size(); ++i) {
      candidates[i] = i;
    }
  }

  const std::size_t objectives = front.front().objectives.size();
  std::vector<double> lo(objectives,
                         std::numeric_limits<double>::infinity());
  std::vector<double> hi(objectives,
                         -std::numeric_limits<double>::infinity());
  for (std::size_t i : candidates) {
    for (std::size_t o = 0; o < objectives; ++o) {
      lo[o] = std::min(lo[o], front[i].objectives[o]);
      hi[o] = std::max(hi[o], front[i].objectives[o]);
    }
  }

  std::size_t best = candidates.front();
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i : candidates) {
    double dist2 = 0.0;
    for (std::size_t o = 0; o < objectives; ++o) {
      const double range = hi[o] - lo[o];
      const double v =
          range > 1e-12 ? (front[i].objectives[o] - lo[o]) / range : 0.0;
      dist2 += v * v;
    }
    const double dist = std::sqrt(dist2);
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

}  // namespace iaas
