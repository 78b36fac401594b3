// The tabu-search repair operator of the paper (Figs. 4-6): whenever an
// NSGA individual violates user constraints, a tabu-guided local search
// makes it compliant by moving VMs hosted on faulty servers to the
// nearest valid neighbour server.
//
// Faithful to Fig. 5/6 with two practical refinements (DESIGN.md §6):
//   * VMs are moved off an overloaded server only until it fits again
//     (Fig. 5 as written empties the whole server);
//   * "nearest" neighbour is resolved through the spine-leaf fabric —
//     candidates are visited by hop distance from the current host
//     (Fabric::find_nearest), so repairs prefer same-leaf, then same-DC,
//     then remote servers.
// Relationship groups (Eqs. 9-12) are repaired after capacity: members of
// a violated group are re-anchored onto a server/datacenter that can
// legally take them.
//
// Each repair() call drives one PlacementState (DESIGN.md §7): allocated
// capacity, overload flags, and violation counts are maintained
// incrementally across relocations, so no pass re-derives the m×h `used`
// matrix or re-runs a full constraint check.  Every scan for a VM's first
// valid server visits only the servers its relations leave open
// (PlacementState::open_servers), the capacity pass walks the state's
// overload bitset, and a walk allocates nothing once its thread has
// repaired an instance as large (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "model/instance.h"
#include "model/placement_state.h"

namespace iaas {

struct TabuRepairOptions {
  std::size_t tabu_tenure = 16;  // forbidden (vm, server) return moves
};

class TabuRepair {
 public:
  // `tables` shares the instance's immutable SoA flattening with the
  // repair states built per repair() call (and with anything else built
  // against the same instance); when null the repairer builds its own.
  explicit TabuRepair(const Instance& instance, TabuRepairOptions options = {},
                      std::shared_ptr<const StateTables> tables = nullptr);

  // Repairs genes in place toward feasibility; returns the number of
  // constraint violations remaining afterwards (0 = fully repaired).
  // Safe to call concurrently from evaluation threads: all shared members
  // are immutable after construction, and each thread walks with its own
  // scratch.
  std::uint32_t repair(std::vector<std::int32_t>& genes, Rng& rng) const;

  // Same walk on a caller-owned PlacementState already rebuilt to the
  // placement under repair (any tracking mode; the walk reads only the
  // demand accumulators and violation counters, which both modes keep
  // current).  The state is left positioned at the repaired placement —
  // with full tracking its accumulators then double as the evaluation of
  // the repaired individual (fused repair-as-evaluation, DESIGN.md §8).
  // The move decisions and RNG consumption are identical to repair(), so
  // both entry points produce the same placement for the same stream.
  std::uint32_t repair_state(PlacementState& state, Rng& rng) const;

 private:
  // One walk's scratch (tabu memory, shed order, relation buffers),
  // defined in repair.cpp: one per thread, reused by every walk on it.
  struct Walk;

  // findNeighbour (Fig. 6): the first server, by fabric distance from the
  // current host, where VM k is a valid allocation and the move is not
  // tabu; returns kRejected-like -1 when none exists.  Only the servers
  // k's relations leave open are visited.
  std::int32_t find_neighbour(const PlacementState& state, std::size_t k,
                              const class TabuList& tabu) const;

  // Move a whole VM group onto `target` if its aggregate demand fits
  // (atomic relocation — required for same-server groups, whose members
  // cannot legally move one at a time).  Returns true when members moved.
  bool relocate_group(PlacementState& state,
                      const std::vector<std::uint32_t>& vms,
                      std::int32_t target, class TabuList& tabu) const;

  bool repair_capacity(PlacementState& state, Walk& walk, Rng& rng) const;
  bool repair_relations(PlacementState& state, Walk& walk, Rng& rng) const;

  const Instance* instance_;
  TabuRepairOptions options_;
  std::shared_ptr<const StateTables> tables_;
};

}  // namespace iaas
