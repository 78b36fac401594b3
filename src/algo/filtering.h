// Filtering algorithm — the fourth family of the paper's Table II
// (compliance with constraints: NO; resource scalability: yes).
//
// The classic scheduler pattern (e.g. OpenStack's filter scheduler):
// for each VM, *filter* the server list down to hosts with enough
// remaining capacity, then *weigh* the survivors (least-loaded first)
// and pick the best.  The filter pipeline knows nothing about the
// consumer's affinity/anti-affinity relationships — which is exactly
// why Table II scores the family "compliance with constraints: NO":
// its raw output can violate relationship constraints, and those VMs
// are lost to sanitization.
#pragma once

#include "algo/allocator.h"

namespace iaas {

class FilteringAllocator : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "Filtering"; }

  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

}  // namespace iaas
