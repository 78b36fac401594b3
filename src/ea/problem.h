// EA-facing adapter of the allocation model: the instance, its shared
// SoA tables (what each engine arena builds its PlacementState over), and
// the warm-start genes.
#pragma once

#include <memory>
#include <vector>

#include "common/rng.h"
#include "model/instance.h"
#include "model/placement_state.h"

namespace iaas {

class AllocationProblem {
 public:
  explicit AllocationProblem(const Instance& instance);

  [[nodiscard]] std::size_t gene_count() const { return instance_->n(); }
  [[nodiscard]] std::int32_t max_gene() const {
    return static_cast<std::int32_t>(instance_->m()) - 1;
  }
  [[nodiscard]] const Instance& instance() const { return *instance_; }

  // Shared immutable SoA tables (model/placement_state.h); every arena
  // state and caller-built repair state of this problem reuses them.
  [[nodiscard]] const std::shared_ptr<const StateTables>& tables() const {
    return tables_;
  }

  // Warm-start genes: the previous window's placement with the
  // still-unplaced VMs randomised — seeding the population with the
  // incumbent is what lets the migration objective (Eq. 26) hold work in
  // place.  Empty when no VM was previously placed.
  [[nodiscard]] std::vector<std::int32_t> warm_start_genes(Rng& rng) const;

 private:
  const Instance* instance_;
  std::shared_ptr<const StateTables> tables_;
};

}  // namespace iaas
