#include "ea/nsga3.h"

#include <algorithm>
#include <limits>

#include "common/expect.h"

namespace iaas {

Nsga3::Nsga3(const AllocationProblem& problem, NsgaConfig config,
             RepairFn repair, StateRepairFn state_repair)
    : NsgaBase(problem, config, std::move(repair), std::move(state_repair)),
      reference_points_(das_dennis_points(config.reference_divisions)) {}

void Nsga3::environmental_selection(Population& merged, Population& next,
                                    Rng& rng) {
  if (config().constraint_mode == ConstraintMode::kExclude) {
    apply_exclusion(merged);
  }
  const std::size_t target = config().population_size;
  const auto fronts = sort_fronts(merged);

  next.clear();
  next.reserve(target);
  std::vector<std::size_t> selected;   // indices into merged
  std::vector<std::size_t> last_front;
  for (const auto& front : fronts) {
    if (selected.size() + front.size() <= target) {
      selected.insert(selected.end(), front.begin(), front.end());
      if (selected.size() == target) {
        break;
      }
    } else {
      last_front = front;
      break;
    }
  }

  if (selected.size() == target || last_front.empty()) {
    for (std::size_t idx : selected) {
      next.push_back(std::move(merged[idx]));
    }
    if (config().niche_tournament) {
      associate_population(next);
    }
    return;
  }

  // Niching over S_t = selected + last front.
  std::vector<std::size_t> st(selected);
  st.insert(st.end(), last_front.begin(), last_front.end());

  Normalizer normalizer;
  normalizer.fit(merged, st);

  // Associate every member of S_t with its closest reference line.
  struct Association {
    std::size_t ref = 0;
    double distance = 0.0;
  };
  std::vector<Association> assoc(merged.size());
  for (std::size_t idx : st) {
    const ObjArray norm = normalizer.normalize(merged[idx].objectives);
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_ref = 0;
    for (std::size_t r = 0; r < reference_points_.size(); ++r) {
      const double d = perpendicular_distance(norm, reference_points_[r]);
      if (d < best) {
        best = d;
        best_ref = r;
      }
    }
    assoc[idx] = {best_ref, best};
  }

  // Niche counts from the already-selected fronts.
  std::vector<std::size_t> niche_count(reference_points_.size(), 0);
  for (std::size_t idx : selected) {
    ++niche_count[assoc[idx].ref];
  }

  // Candidates in the last front grouped per reference point.
  std::vector<std::vector<std::size_t>> candidates(reference_points_.size());
  for (std::size_t idx : last_front) {
    candidates[assoc[idx].ref].push_back(idx);
  }

  while (selected.size() < target) {
    // Reference point with the smallest niche count among those that
    // still have candidates (random tie-break).
    std::size_t best_ref = reference_points_.size();
    std::size_t best_count = std::numeric_limits<std::size_t>::max();
    std::size_t ties = 0;
    for (std::size_t r = 0; r < reference_points_.size(); ++r) {
      if (candidates[r].empty()) {
        continue;
      }
      if (niche_count[r] < best_count) {
        best_count = niche_count[r];
        best_ref = r;
        ties = 1;
      } else if (niche_count[r] == best_count) {
        // Reservoir-style random tie-break among equally starved niches.
        ++ties;
        if (rng.uniform_index(ties) == 0) {
          best_ref = r;
        }
      }
    }
    IAAS_EXPECT(best_ref < reference_points_.size(),
                "niching ran out of candidates before filling population");

    auto& bucket = candidates[best_ref];
    std::size_t pick_pos;
    if (niche_count[best_ref] == 0) {
      // Empty niche: take the member closest to the reference line.
      pick_pos = 0;
      for (std::size_t i = 1; i < bucket.size(); ++i) {
        if (assoc[bucket[i]].distance < assoc[bucket[pick_pos]].distance) {
          pick_pos = i;
        }
      }
    } else {
      pick_pos = rng.uniform_index(bucket.size());
    }
    selected.push_back(bucket[pick_pos]);
    bucket.erase(bucket.begin() + static_cast<std::ptrdiff_t>(pick_pos));
    ++niche_count[best_ref];
  }

  for (std::size_t idx : selected) {
    // Persist the association for the niche tournament.
    merged[idx].ref_index = static_cast<std::uint32_t>(assoc[idx].ref);
    merged[idx].ref_distance = assoc[idx].distance;
    next.push_back(std::move(merged[idx]));
  }
}

void Nsga3::associate_population(Population& next) const {
  if (next.empty()) {
    return;
  }
  std::vector<std::size_t> members(next.size());
  for (std::size_t i = 0; i < next.size(); ++i) {
    members[i] = i;
  }
  Normalizer normalizer;
  normalizer.fit(next, members);
  for (Individual& ind : next) {
    const ObjArray norm = normalizer.normalize(ind.objectives);
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_ref = 0;
    for (std::size_t r = 0; r < reference_points_.size(); ++r) {
      const double d = perpendicular_distance(norm, reference_points_[r]);
      if (d < best) {
        best = d;
        best_ref = r;
      }
    }
    ind.ref_index = static_cast<std::uint32_t>(best_ref);
    ind.ref_distance = best;
  }
}

const Individual& Nsga3::tournament(const Population& population, Rng& rng) {
  if (!config().niche_tournament) {
    return NsgaBase::tournament(population, rng);
  }
  const Individual& a = population[rng.uniform_index(population.size())];
  const Individual& b = population[rng.uniform_index(population.size())];
  if (a.rank != b.rank) {
    return a.rank < b.rank ? a : b;
  }
  if (a.ref_index == b.ref_index && a.ref_distance != b.ref_distance) {
    return a.ref_distance < b.ref_distance ? a : b;
  }
  return rng.bernoulli(0.5) ? a : b;
}

}  // namespace iaas
