// Assignment units: the transitive closure of the relationship groups.
//
// VMs sharing any Eq. 9-12 constraint land in one unit (one singleton
// unit per unconstrained VM), so routing a whole unit to one partition —
// a cloud in the multi-cloud broker, a shard in the sharded allocator —
// keeps every relationship constraint locally checkable: no group is
// ever split across partitions.  Units are ordered by their smallest
// member, members ascending — a deterministic partition of [0, n).
#pragma once

#include <cstdint>
#include <vector>

#include "model/request_set.h"

namespace iaas {

std::vector<std::vector<std::uint32_t>> assignment_units(
    const RequestSet& requests);

// The units of `batch` as standalone request sets, in assignment_units
// order: each unit's VMs in member order, and its constraints in batch
// order with unit-local indices (every constraint lies whole inside one
// unit).  The admission queue and the multi-cloud routing pool take a
// fresh batch apart this way.
std::vector<RequestSet> split_units(RequestSet batch);

}  // namespace iaas
