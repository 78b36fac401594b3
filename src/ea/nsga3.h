// NSGA-III (Deb & Jain 2014; the paper's [28] covers the unified
// U-NSGA-III variant with the same niching core): non-dominated sorting
// plus reference-point niching with adaptive normalisation.
#pragma once

#include <span>
#include <vector>

#include "ea/nsga_base.h"
#include "ea/reference_points.h"

namespace iaas {

class Nsga3 : public NsgaBase {
 public:
  Nsga3(const AllocationProblem& problem, NsgaConfig config,
        RepairFn repair = nullptr, StateRepairFn state_repair = nullptr);

  [[nodiscard]] const std::vector<ObjArray>& reference_points() const {
    return reference_points_;
  }

 protected:
  void environmental_selection(Population& merged, Population& next,
                               Rng& rng) override;

  // U-NSGA-III niche tournament when config().niche_tournament is set;
  // canonical rank-then-random otherwise.
  const Individual& tournament(const Population& population,
                               Rng& rng) override;

 private:
  struct Association {
    std::size_t ref = 0;
    double distance = 0.0;
  };

  // Normalises over `members` (indices into `merged`) and records each
  // one's closest reference line in associations_.
  void associate(std::span<const Individual> merged,
                 std::span<const std::size_t> members);

  std::vector<ObjArray> reference_points_;
  std::vector<double> reference_norm2_;  // squared_norm of each point

  // Niching scratch, sized on first use and reused by every selection.
  std::vector<Association> associations_;  // by index into merged
  std::vector<std::size_t> niche_count_;   // by reference point
  // The last front's candidates, grouped by reference point in front
  // order: bucket r is buckets_[bucket_start_[r], + bucket_size_[r]).
  std::vector<std::size_t> buckets_;
  std::vector<std::size_t> bucket_start_;
  std::vector<std::size_t> bucket_size_;
};

}  // namespace iaas
