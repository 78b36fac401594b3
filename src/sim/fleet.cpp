#include "sim/fleet.h"

#include <exception>
#include <utility>

#include "common/stopwatch.h"

namespace iaas {
namespace {

// Drop the entries of `v` whose keep flag is 0, preserving order — the
// companion of compact_requests for per-VM side arrays.
template <typename T>
void compact_parallel(std::vector<T>& v, const std::vector<char>& keep) {
  std::size_t out = 0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (keep[k] != 0) {
      v[out++] = std::move(v[k]);
    }
  }
  v.resize(out);
}

}  // namespace

void compact_requests(RequestSet& requests, Placement& placement,
                      const std::vector<char>& keep) {
  std::vector<std::uint32_t> remap(requests.vms.size(), 0);
  std::vector<VmRequest> vms;
  std::vector<std::int32_t> genes;
  for (std::size_t k = 0; k < requests.vms.size(); ++k) {
    if (keep[k] == 0) {
      continue;
    }
    remap[k] = static_cast<std::uint32_t>(vms.size());
    vms.push_back(std::move(requests.vms[k]));
    genes.push_back(placement.server_of(k));
  }
  std::vector<PlacementConstraint> constraints;
  for (PlacementConstraint& c : requests.constraints) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t k : c.vms) {
      if (keep[k] != 0) {
        members.push_back(remap[k]);
      }
    }
    if (members.size() >= 2) {
      constraints.push_back({c.kind, std::move(members)});
    }
  }
  requests.vms = std::move(vms);
  requests.constraints = std::move(constraints);
  placement = Placement(std::move(genes));
}

const char* degrade_level_name(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNone:
      return "none";
    case DegradeLevel::kBestEffort:
      return "best_effort";
    case DegradeLevel::kFallback:
      return "fallback";
  }
  return "unknown";
}

void Fleet::append(VmRequest vm, std::size_t vm_attempts,
                   std::size_t vm_redirects) {
  live.vms.push_back(std::move(vm));
  placement.genes().push_back(Placement::kRejected);
  attempts.push_back(vm_attempts);
  redirects.push_back(vm_redirects);
  for (std::vector<std::int32_t>& genes : front) {
    genes.push_back(Placement::kRejected);
  }
}

void Fleet::append(RequestSet unit, std::size_t unit_attempts,
                   std::size_t unit_redirects) {
  const auto offset = static_cast<std::uint32_t>(size());
  for (VmRequest& vm : unit.vms) {
    append(std::move(vm), unit_attempts, unit_redirects);
  }
  for (PlacementConstraint& c : unit.constraints) {
    for (std::uint32_t& k : c.vms) {
      k += offset;
    }
    live.constraints.push_back(std::move(c));
  }
}

void Fleet::compact(const std::vector<char>& keep) {
  compact_requests(live, placement, keep);
  compact_parallel(attempts, keep);
  compact_parallel(redirects, keep);
  for (std::vector<std::int32_t>& genes : front) {
    compact_parallel(genes, keep);
  }
}

std::size_t Fleet::depart(double probability, Rng& rng) {
  if (empty() || probability <= 0.0) {
    return 0;
  }
  std::vector<char> keep(size(), 1);
  std::size_t departed = 0;
  for (std::size_t k = 0; k < keep.size(); ++k) {
    if (rng.bernoulli(probability)) {
      keep[k] = 0;
      ++departed;
    }
  }
  if (departed > 0) {
    compact(keep);
  }
  return departed;
}

FleetSolve solve_fleet(Fleet& fleet, const Infrastructure& infra,
                       const FaultModel& faults, Allocator& primary,
                       Allocator& fallback, std::uint64_t seed,
                       const SolvePolicy& policy) {
  // Down servers keep their identity but lose their capacity for this
  // window, so the allocator is forced to evacuate them (and pays
  // Eq. 26 for every displaced VM it saves).
  Infrastructure window_infra = infra;
  std::size_t displaced = 0;
  if (faults.down_count() > 0) {
    std::vector<Server> servers = infra.servers();
    for (std::size_t j = 0; j < servers.size(); ++j) {
      if (faults.is_down(static_cast<std::uint32_t>(j))) {
        for (double& f : servers[j].factor) {
          f = 1e-9;  // effective capacity ~ 0: nothing can stay
        }
      }
    }
    window_infra =
        Infrastructure(infra.fabric().config(), std::move(servers));
    for (std::size_t k = 0; k < fleet.size(); ++k) {
      if (fleet.placement.is_assigned(k) &&
          faults.is_down(
              static_cast<std::uint32_t>(fleet.placement.server_of(k)))) {
        ++displaced;
      }
    }
  }
  FleetSolve step{Instance(std::move(window_infra), fleet.live)};
  step.instance.previous = fleet.placement;
  step.displaced = displaced;

  // Hand the carried front to the allocator (EA family consumes it and
  // arms front export; others decline — the copy keeps the carry intact
  // in case the window degrades to the fallback).
  if (policy.warm_start) {
    primary.seed_next_run(fleet.front);
  }

  Stopwatch timer;
  bool primary_failed = false;
  try {
    step.result = primary.allocate(step.instance, seed);
  } catch (const std::exception&) {
    // The primary blew up mid-window (the paper's algorithms share an
    // engine, but a pluggable Allocator is arbitrary code).  The
    // window is served by the greedy fallback instead of stalling the
    // horizon.  (IAAS_EXPECT aborts the process by design and is not
    // recoverable here.)
    primary_failed = true;
  }
  const double primary_seconds = timer.elapsed_seconds();
  const bool hard_overrun =
      !primary_failed && policy.deadline_seconds > 0.0 &&
      policy.hard_factor > 0.0 &&
      primary_seconds > policy.deadline_seconds * policy.hard_factor;
  if (primary_failed || hard_overrun) {
    step.result = fallback.allocate(step.instance, seed);
    step.degrade = DegradeLevel::kFallback;
  } else if (step.result.deadline_hit) {
    // Anytime truncation: the EA stopped at a generation boundary and
    // handed over its best front so far.
    step.degrade = DegradeLevel::kBestEffort;
  }
  step.seconds = timer.elapsed_seconds();
  if (policy.warm_start && !step.result.front_genes.empty()) {
    // Adopt the fresh front (aligned with this window's instance); a
    // degraded window exports none and the previous carry — still
    // aligned — survives.
    fleet.front = std::move(step.result.front_genes);
  }
  step.plan = make_plan(step.instance, fleet.placement, step.result.placement);
  return step;
}

Settled settle_fleet(Fleet& fleet, Placement placement, RetryQueue& retries,
                     std::size_t window, std::int32_t home_provider) {
  Settled settled;
  const Placement previous =
      std::exchange(fleet.placement, std::move(placement));
  std::vector<char> keep(fleet.size(), 1);
  bool any_drop = false;
  for (std::size_t k = 0; k < fleet.size(); ++k) {
    if (fleet.placement.is_assigned(k)) {
      continue;
    }
    keep[k] = 0;
    any_drop = true;
    if (previous.is_assigned(k)) {
      ++settled.evicted;
    }
    if (!retries.offer(std::move(fleet.live.vms[k]), fleet.attempts[k] + 1,
                       window, fleet.redirects[k], home_provider)) {
      ++settled.permanently_rejected;
    }
  }
  if (any_drop) {
    fleet.compact(keep);
  }
  return settled;
}

}  // namespace iaas
