#include "ea/nsga3.h"

#include <algorithm>
#include <limits>

#include "common/expect.h"

namespace iaas {

Nsga3::Nsga3(const AllocationProblem& problem, NsgaConfig config,
             RepairFn repair)
    : NsgaBase(problem, config, std::move(repair)),
      reference_points_(das_dennis_points(config.reference_divisions)) {
  buckets_.reserve(2 * config.population_size);  // the last front's bound
  reference_norm2_.reserve(reference_points_.size());
  for (const ObjArray& point : reference_points_) {
    reference_norm2_.push_back(squared_norm(point));
  }
}

void Nsga3::environmental_selection(Population& population, Population& next,
                                    Rng& rng) {
  const std::span<Individual> merged =
      config().constraint_mode == ConstraintMode::kExclude
          ? apply_exclusion(population)
          : std::span<Individual>(population);
  const std::size_t target = config().population_size;
  const Fronts& fronts = sort_fronts(merged);

  // Whole fronts while they fit; front `cut`, if any, straddles the target.
  std::size_t cut = 0;
  while (cut < fronts.size() && fronts.offsets[cut + 1] <= target) {
    ++cut;
  }
  const std::span<const std::size_t> order(fronts.order);
  const std::span<const std::size_t> selected =
      order.first(fronts.offsets[cut]);
  next.clear();
  next.reserve(target);
  // Moves a survivor into `next`, stamped with its association when
  // `stamp` (the niche tournament reads it).
  const auto keep = [&](std::size_t idx, bool stamp) {
    if (stamp) {
      merged[idx].ref_index =
          static_cast<std::uint32_t>(associations_[idx].ref);
      merged[idx].ref_distance = associations_[idx].distance;
    }
    next.push_back(std::move(merged[idx]));
  };

  if (selected.size() == target || cut == fronts.size()) {
    const bool stamp = config().niche_tournament && !selected.empty();
    if (stamp) {
      associate(merged, selected);
    }
    for (std::size_t idx : selected) {
      keep(idx, stamp);
    }
    return;
  }

  // Niching over S_t = the whole fronts + the last front.
  const std::span<const std::size_t> last_front = fronts[cut];
  associate(merged, order.first(fronts.offsets[cut + 1]));

  // Niche counts from the already-selected fronts.
  const std::size_t refs = reference_points_.size();
  niche_count_.assign(refs, 0);
  for (std::size_t idx : selected) {
    ++niche_count_[associations_[idx].ref];
  }

  // Candidates in the last front grouped per reference point, each
  // bucket in front order.
  bucket_start_.assign(refs + 1, 0);
  for (std::size_t idx : last_front) {
    ++bucket_start_[associations_[idx].ref + 1];
  }
  for (std::size_t r = 0; r < refs; ++r) {
    bucket_start_[r + 1] += bucket_start_[r];
  }
  bucket_size_.assign(refs, 0);
  buckets_.resize(last_front.size());
  for (std::size_t idx : last_front) {
    const std::size_t r = associations_[idx].ref;
    buckets_[bucket_start_[r] + bucket_size_[r]++] = idx;
  }

  for (std::size_t idx : selected) {
    keep(idx, true);
  }
  while (next.size() < target) {
    // Reference point with the smallest niche count among those that
    // still have candidates (random tie-break).
    std::size_t best_ref = refs;
    std::size_t best_count = std::numeric_limits<std::size_t>::max();
    std::size_t ties = 0;
    for (std::size_t r = 0; r < refs; ++r) {
      if (bucket_size_[r] == 0) {
        continue;
      }
      if (niche_count_[r] < best_count) {
        best_count = niche_count_[r];
        best_ref = r;
        ties = 1;
      } else if (niche_count_[r] == best_count) {
        // Reservoir-style random tie-break among equally starved niches.
        ++ties;
        if (rng.uniform_index(ties) == 0) {
          best_ref = r;
        }
      }
    }
    IAAS_EXPECT(best_ref < refs,
                "niching ran out of candidates before filling population");

    std::size_t* bucket = buckets_.data() + bucket_start_[best_ref];
    std::size_t& size = bucket_size_[best_ref];
    std::size_t pick_pos;
    if (niche_count_[best_ref] == 0) {
      // Empty niche: take the member closest to the reference line.
      pick_pos = 0;
      for (std::size_t i = 1; i < size; ++i) {
        if (associations_[bucket[i]].distance <
            associations_[bucket[pick_pos]].distance) {
          pick_pos = i;
        }
      }
    } else {
      pick_pos = rng.uniform_index(size);
    }
    keep(bucket[pick_pos], true);
    // Close the gap in place, so the bucket keeps its front order.
    std::copy(bucket + pick_pos + 1, bucket + size, bucket + pick_pos);
    --size;
    ++niche_count_[best_ref];
  }
}

void Nsga3::associate(std::span<const Individual> merged,
                      std::span<const std::size_t> members) {
  Normalizer normalizer;
  normalizer.fit(merged, members);
  associations_.resize(merged.size());
  for (std::size_t idx : members) {
    const ObjArray norm = normalizer.normalize(merged[idx].objectives);
    double best = std::numeric_limits<double>::infinity();
    std::size_t best_ref = 0;
    for (std::size_t r = 0; r < reference_points_.size(); ++r) {
      const double d = perpendicular_distance(norm, reference_points_[r],
                                              reference_norm2_[r]);
      if (d < best) {
        best = d;
        best_ref = r;
      }
    }
    associations_[idx] = {best_ref, best};
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
