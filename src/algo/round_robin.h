// Round Robin with server affinity — the paper's first baseline ([26]:
// Mahajan, Makroo & Dahiya, "Round Robin with Server Affinity: A VM Load
// Balancing Algorithm for Cloud Based Infrastructure"), "already tuned
// for cloud resource allocation where virtual machines can be allocated
// and sorted by affinity".
//
// VMs are ordered so that relationship-group members are handled
// back-to-back (the affinity sort); a rotating cursor spreads load across
// servers; each VM takes the first server from the cursor where the
// allocation is valid (capacity + relationships), and is rejected when a
// full sweep finds none.
#pragma once

#include "algo/allocator.h"

namespace iaas {

class RoundRobinAllocator : public Allocator {
 public:
  [[nodiscard]] std::string name() const override { return "RoundRobin"; }

  AllocationResult allocate(const Instance& instance,
                            std::uint64_t seed) override;
};

}  // namespace iaas
