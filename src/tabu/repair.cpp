#include "tabu/repair.h"

#include <algorithm>
#include <span>

#include "common/expect.h"
#include "common/telemetry.h"
#include "tabu/tabu_list.h"

namespace iaas {
namespace {

// Capacity + relationship sweeps before giving up (then one last sweep
// with the tabu memory cleared).
constexpr std::size_t kMaxPasses = 4;

}  // namespace

// Every buffer a walk needs, kept per thread: reset() re-arms the tabu
// memory and reserves room for an instance of n VMs and g datacenters (no
// server hosts, and no constraint lists, more than n VMs), so once a
// thread has walked an instance as large, a walk allocates nothing.
struct TabuRepair::Walk {
  TabuList tabu{0};
  std::vector<std::uint32_t> shed_order;  // one overloaded server's VMs
  std::vector<std::uint32_t> dc_count;    // same-DC members per datacenter
  std::vector<std::uint32_t> members;     // an anti-affinity group, shuffled
  std::vector<std::int32_t> taken;        // servers or DCs it already holds

  void reset(std::size_t tenure, std::size_t n, std::size_t g) {
    tabu.reset(tenure);
    shed_order.reserve(n);
    dc_count.reserve(g);
    members.reserve(n);
    taken.reserve(n);
  }
};

TabuRepair::TabuRepair(const Instance& instance, TabuRepairOptions options,
                       std::shared_ptr<const StateTables> tables)
    : instance_(&instance),
      options_(options),
      tables_(tables ? std::move(tables)
                     : std::make_shared<const StateTables>(instance)) {}

std::int32_t TabuRepair::find_neighbour(const PlacementState& state,
                                        std::size_t k,
                                        const TabuList& tabu) const {
  telemetry::count(telemetry::Counter::kTabuMovesTried);
  const ServerRange open = state.open_servers(k);
  if (open.empty()) {
    return Placement::kRejected;
  }
  const Fabric& fabric = instance_->infra.fabric();
  const std::int32_t current = state.placement().server_of(k);
  const auto anchor = static_cast<std::uint32_t>(std::max(current, 0));
  const auto vm = static_cast<std::uint32_t>(k);
  const std::uint32_t hit = fabric.find_nearest(
      anchor, open.first, open.last, [&](std::uint32_t j) {
        const auto server = static_cast<std::int32_t>(j);
        return server != current && !tabu.is_tabu(vm, server) &&
               state.is_valid_allocation(k, j);
      });
  return hit < fabric.server_count() ? static_cast<std::int32_t>(hit)
                                     : Placement::kRejected;
}

bool TabuRepair::relocate_group(PlacementState& state,
                                const std::vector<std::uint32_t>& vms,
                                std::int32_t target, TabuList& tabu) const {
  telemetry::count(telemetry::Counter::kTabuMovesTried);
  const Instance& inst = *instance_;
  const Placement& placement = state.placement();
  const auto t = static_cast<std::size_t>(target);
  const std::span<const double> overload = tables_->overload_threshold.row(t);

  // Capacity check for the members not already on the target.
  for (std::size_t l = 0; l < inst.h(); ++l) {
    double incoming = 0.0;
    for (std::uint32_t k : vms) {
      if (placement.is_assigned(k) && placement.server_of(k) != target) {
        incoming += inst.requests.vms[k].demand[l];
      }
    }
    if (incoming == 0.0) {
      continue;
    }
    if (state.used()(t, l) + incoming > overload[l]) {
      return false;
    }
  }

  // Move everyone; the group's own same-server relation is satisfied by
  // construction, and the post-move audit in repair() catches any clash
  // with a member's other constraints for the next pass.
  bool moved = false;
  for (std::uint32_t k : vms) {
    if (!placement.is_assigned(k) || placement.server_of(k) == target) {
      continue;
    }
    const std::int32_t from = placement.server_of(k);
    state.apply_move(k, target);
    tabu.forbid(k, from);
    moved = true;
  }
  return moved;
}

bool TabuRepair::repair_capacity(PlacementState& state, Walk& walk,
                                 Rng& rng) const {
  const Instance& inst = *instance_;
  const Fabric& fabric = inst.infra.fabric();
  TabuList& tabu = walk.tabu;
  std::vector<std::uint32_t>& shed_order = walk.shed_order;
  bool moved_any = false;

  // exceedingDetection (Fig. 5 line 2): the state's overload bitset is
  // kept current by every apply_move, so no re-scan is needed.  The next
  // overloaded server is looked up after j's moves, so the servers come
  // in the order of a scan over every flag.
  for (std::size_t j = state.next_overloaded(0); j < inst.m();
       j = state.next_overloaded(j + 1)) {
    // Shed in random order so repeated repairs explore different subsets
    // (the stochastic component of the tabu walk).
    const auto members = state.vms_on(j);
    shed_order.assign(members.begin(), members.end());
    rng.shuffle(shed_order);
    for (std::uint32_t k : shed_order) {
      if (!state.server_overloaded(j)) {
        break;  // server fits again: stop evicting (refinement over Fig. 5)
      }
      const std::int32_t target = find_neighbour(state, k, tabu);
      if (target == Placement::kRejected) {
        continue;  // no valid neighbour for this VM; try shedding others
      }
      const std::int32_t from = state.placement().server_of(k);
      state.apply_move(k, target);
      tabu.forbid(k, from);  // don't bounce straight back
      moved_any = true;
    }

    // Deadlock breaker: a satisfied same-server group on a too-small
    // host cannot shed members individually (each move would break the
    // relation and is_valid_allocation vetoes it) — relocate the whole
    // group to a bigger server instead.
    if (state.server_overloaded(j)) {
      for (const PlacementConstraint& c : inst.requests.constraints) {
        if (!state.server_overloaded(j)) {
          break;
        }
        if (c.kind != RelationKind::kSameServer) {
          continue;
        }
        const bool anchored_here = std::any_of(
            c.vms.begin(), c.vms.end(), [&](std::uint32_t k) {
              return state.placement().is_assigned(k) &&
                     state.placement().server_of(k) ==
                         static_cast<std::int32_t>(j);
            });
        if (!anchored_here) {
          continue;
        }
        const auto host = static_cast<std::uint32_t>(j);
        const std::uint32_t target =
            fabric.find_nearest(host, [&](std::uint32_t t) {
              return t != host &&
                     relocate_group(state, c.vms,
                                    static_cast<std::int32_t>(t), tabu);
            });
        moved_any = moved_any || target < fabric.server_count();
      }
    }
  }
  return moved_any;
}

bool TabuRepair::repair_relations(PlacementState& state, Walk& walk,
                                  Rng& rng) const {
  const Instance& inst = *instance_;
  const Fabric& fabric = inst.infra.fabric();
  TabuList& tabu = walk.tabu;
  bool moved_any = false;

  const auto& constraints = inst.requests.constraints;
  for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
    if (state.relation_satisfied(ci)) {
      continue;
    }
    const PlacementConstraint& c = constraints[ci];
    switch (c.kind) {
      case RelationKind::kSameServer: {
        // Relocate the whole group atomically (member-by-member moves can
        // never reassemble a group scattered over 3+ servers, because the
        // first mover is invalid against its not-yet-moved peers).
        // Anchor candidates: each member's current host (cheapest moves),
        // then every server by fabric distance from the first host.  A
        // failed relocation moves nothing, so the hosts can be read as
        // the scan goes.
        std::int32_t first_host = Placement::kRejected;
        bool relocated = false;
        for (std::uint32_t anchor_vm : c.vms) {
          if (!state.placement().is_assigned(anchor_vm)) {
            continue;
          }
          const std::int32_t host = state.placement().server_of(anchor_vm);
          if (first_host == Placement::kRejected) {
            first_host = host;
          }
          if (relocate_group(state, c.vms, host, tabu)) {
            relocated = true;
            break;
          }
        }
        if (!relocated && first_host != Placement::kRejected) {
          relocated =
              fabric.find_nearest(
                  static_cast<std::uint32_t>(first_host),
                  [&](std::uint32_t t) {
                    return relocate_group(state, c.vms,
                                          static_cast<std::int32_t>(t), tabu);
                  }) < fabric.server_count();
        }
        moved_any = moved_any || relocated;
        break;
      }
      case RelationKind::kSameDatacenter: {
        // Anchor datacenter = the one hosting the most members; move the
        // stragglers to any valid server inside it.
        std::vector<std::uint32_t>& count = walk.dc_count;
        count.assign(inst.g(), 0);
        for (std::uint32_t k : c.vms) {
          if (state.placement().is_assigned(k)) {
            ++count[inst.infra.datacenter_of(
                static_cast<std::size_t>(state.placement().server_of(k)))];
          }
        }
        const std::size_t anchor_dc = static_cast<std::size_t>(
            std::max_element(count.begin(), count.end()) - count.begin());
        for (std::uint32_t k : c.vms) {
          if (!state.placement().is_assigned(k)) {
            continue;
          }
          const auto cur =
              static_cast<std::size_t>(state.placement().server_of(k));
          if (inst.infra.datacenter_of(cur) == anchor_dc) {
            continue;
          }
          // Every server of another datacenter is equally far (6 hops)
          // from the straggler, so the nearest valid one is the first in
          // the anchor datacenter's contiguous index range that its
          // relations leave open.
          const std::size_t dc_size = fabric.servers_per_datacenter();
          const ServerRange open = state.open_servers(k);
          const std::size_t end =
              std::min<std::size_t>((anchor_dc + 1) * dc_size, open.last);
          for (std::size_t j =
                   std::max<std::size_t>(anchor_dc * dc_size, open.first);
               j < end; ++j) {
            if (state.is_valid_allocation(k, j)) {
              state.apply_move(k, static_cast<std::int32_t>(j));
              tabu.forbid(k, static_cast<std::int32_t>(cur));
              moved_any = true;
              break;
            }
          }
        }
        break;
      }
      case RelationKind::kDifferentServers:
      case RelationKind::kDifferentDatacenters: {
        // Keep the first occupant of each server/DC; move the duplicates
        // to the nearest valid alternative (is_valid_allocation enforces
        // the anti-affinity against the remaining members).
        std::vector<std::uint32_t>& members = walk.members;
        members.assign(c.vms.begin(), c.vms.end());
        rng.shuffle(members);
        std::vector<std::int32_t>& taken = walk.taken;
        taken.clear();
        for (std::uint32_t k : members) {
          if (!state.placement().is_assigned(k)) {
            continue;
          }
          const std::int32_t cur = state.placement().server_of(k);
          const std::int32_t slot =
              c.kind == RelationKind::kDifferentServers
                  ? cur
                  : static_cast<std::int32_t>(inst.infra.datacenter_of(
                        static_cast<std::size_t>(cur)));
          if (std::find(taken.begin(), taken.end(), slot) == taken.end()) {
            taken.push_back(slot);
            continue;
          }
          const std::int32_t target = find_neighbour(state, k, tabu);
          if (target == Placement::kRejected) {
            continue;
          }
          state.apply_move(k, target);
          tabu.forbid(k, cur);
          moved_any = true;
          const std::int32_t new_slot =
              c.kind == RelationKind::kDifferentServers
                  ? target
                  : static_cast<std::int32_t>(inst.infra.datacenter_of(
                        static_cast<std::size_t>(target)));
          taken.push_back(new_slot);
        }
        break;
      }
    }
  }
  return moved_any;
}

std::uint32_t TabuRepair::repair(std::vector<std::int32_t>& genes,
                                 Rng& rng) const {
  const Instance& inst = *instance_;
  IAAS_EXPECT(genes.size() == inst.n(), "gene count mismatch with instance");

  // Per-call state keeps repair() reentrant; the single rebuild here is
  // the last full evaluation — all subsequent violation counts come from
  // the delta accumulators.  Repair never reads objectives, so the state
  // tracks violations only (no QoS/downtime refresh per move).
  PlacementState state(inst, {}, StateTracking::kViolationsOnly, tables_);
  state.rebuild(genes);
  const std::uint32_t remaining = repair_state(state, rng);
  if (state.applied_moves() > 0) {
    genes = state.placement().genes();
  }
  return remaining;
}

std::uint32_t TabuRepair::repair_state(PlacementState& state,
                                       Rng& rng) const {
  IAAS_EXPECT(&state.instance() == instance_,
              "state built against a different instance");
  // Fast path: feasible individuals pass through untouched (the paper
  // only treats parents that "do not respect users constraints").
  if (state.total_violations() == 0) {
    return 0;
  }
  const std::size_t moves_before = state.applied_moves();
  thread_local Walk walk;
  walk.reset(options_.tabu_tenure, instance_->n(), instance_->g());

  std::uint32_t remaining = state.total_violations();
  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    bool moved = repair_capacity(state, walk, rng);
    moved = repair_relations(state, walk, rng) || moved;
    remaining = state.total_violations();
    if (remaining == 0 || !moved) {
      break;
    }
  }
  if (remaining > 0) {
    // Last resort: the tabu memory itself may be blocking the only valid
    // moves — clear it and sweep once more unrestricted.
    walk.tabu.clear();
    repair_capacity(state, walk, rng);
    repair_relations(state, walk, rng);
    remaining = state.total_violations();
  }
  telemetry::count(telemetry::Counter::kTabuMovesAccepted,
                   state.applied_moves() - moves_before);
  telemetry::count(remaining == 0
                       ? telemetry::Counter::kRepairedIndividuals
                       : telemetry::Counter::kUnrepairableIndividuals);
  return remaining;
}

}  // namespace iaas
