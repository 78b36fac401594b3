// One cloud's fleet and its round of the cyclic window (paper §III: each
// window the provider re-solves everything that should be running).
// Both window loops run this unit: CloudSimulator on its one cloud,
// MultiCloudSimulator once per provider.
//
// A round is two calls.  solve_fleet masks the cloud's down servers,
// hands the carried warm-start front to the allocator and runs the
// degrade chain: the primary allocator, its best-effort truncation, and
// the greedy fallback on the same seed when the primary throws or blows
// its hard deadline.  settle_fleet adopts the resulting placement and
// sends every VM it left unplaced to the retry queue.  Between the two
// calls the caller reads the solve for the columns only it reports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algo/allocator.h"
#include "common/rng.h"
#include "model/instance.h"
#include "sim/fault_model.h"
#include "sim/reconfiguration_plan.h"
#include "sim/retry_queue.h"

namespace iaas {

// Remove the VMs with keep[k] == 0 from the set + placement: surviving
// VM indices are compacted (and constraint-group members remapped to
// them); relationship groups shrinking below two members are dropped.
// Exposed for testing — Fleet::compact applies it on departures and
// rejections every window.
void compact_requests(RequestSet& requests, Placement& placement,
                      const std::vector<char>& keep);

// How a window's allocation was obtained.
enum class DegradeLevel : std::uint8_t {
  kNone = 0,        // primary allocator, within budget
  kBestEffort = 1,  // primary truncated by its budget: best front so far
  kFallback = 2,    // greedy fallback (allocator threw / hard deadline)
};

const char* degrade_level_name(DegradeLevel level);

// Every VM that should be running on one cloud, index-parallel across
// all vectors.
struct Fleet {
  RequestSet live;
  Placement placement{0};
  std::vector<std::size_t> attempts;   // failed placements per VM
  std::vector<std::size_t> redirects;  // cross-cloud hops per VM
  // warm_start_front: the allocator's last exported front, each gene
  // vector kept aligned with `live` through the same appends and
  // compactions.
  std::vector<std::vector<std::int32_t>> front;

  [[nodiscard]] std::size_t size() const { return live.vms.size(); }
  [[nodiscard]] bool empty() const { return live.vms.empty(); }

  // Appends unplaced VMs: one, or a whole unit whose constraints index
  // its own VMs.
  void append(VmRequest vm, std::size_t vm_attempts,
              std::size_t vm_redirects = 0);
  void append(RequestSet unit, std::size_t unit_attempts = 0,
              std::size_t unit_redirects = 0);
  void compact(const std::vector<char>& keep);
  // Each VM leaves with `probability`: one draw per VM in index order,
  // no draw at all for an empty fleet or a zero probability.  Returns
  // the number that left.
  std::size_t depart(double probability, Rng& rng);
};

// The degrade chain's knobs, as SimConfig names them (a multi-cloud run
// sets only warm_start).
struct SolvePolicy {
  bool warm_start = false;        // carry the allocator's front across
  double deadline_seconds = 0.0;  // allocator_deadline_seconds
  double hard_factor = 0.0;       // deadline_hard_factor
};

struct FleetSolve {
  Instance instance;  // down servers masked, previous = the fleet's placement
  AllocationResult result{};
  ReconfigurationPlan plan{};  // previous -> result.placement
  std::size_t displaced = 0;  // VMs that were hosted on a down server
  DegradeLevel degrade = DegradeLevel::kNone;
  double seconds = 0.0;  // primary + fallback wall time
};

FleetSolve solve_fleet(Fleet& fleet, const Infrastructure& infra,
                       const FaultModel& faults, Allocator& primary,
                       Allocator& fallback, std::uint64_t seed,
                       const SolvePolicy& policy);

struct Settled {
  std::size_t evicted = 0;               // were running, now unplaced
  std::size_t permanently_rejected = 0;  // retry budget spent
};

// Adopt `placement` (index-parallel with the fleet).  Every VM it leaves
// unplaced leaves the fleet for the retry queue while its attempt budget
// lasts, carrying its redirects and `home_provider` (-1 single-cloud).
Settled settle_fleet(Fleet& fleet, Placement placement, RetryQueue& retries,
                     std::size_t window, std::int32_t home_provider = -1);

}  // namespace iaas
