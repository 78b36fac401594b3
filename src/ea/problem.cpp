#include "ea/problem.h"

#include "model/placement.h"

namespace iaas {

AllocationProblem::AllocationProblem(const Instance& instance)
    : instance_(&instance),
      tables_(std::make_shared<const StateTables>(instance)) {}

std::vector<std::int32_t> AllocationProblem::warm_start_genes(
    Rng& rng) const {
  const Placement& previous = instance_->previous;
  if (previous.assigned_count() == 0) {
    return {};
  }
  std::vector<std::int32_t> genes(gene_count());
  for (std::size_t k = 0; k < gene_count(); ++k) {
    genes[k] = previous.is_assigned(k)
                   ? previous.server_of(k)
                   : static_cast<std::int32_t>(rng.uniform_int(
                         0, max_gene()));
  }
  return genes;
}

}  // namespace iaas
