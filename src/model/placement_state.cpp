#include "model/placement_state.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/telemetry.h"
#include "model/load_model.h"

namespace iaas {

StateTables::StateTables(const Instance& instance)
    : demand(instance.n(), instance.h()),
      vm_qos_guarantee(instance.n(), 0.0),
      vm_downtime_cost(instance.n(), 0.0),
      vm_migration_cost(instance.n(), 0.0),
      previous_host(instance.n(), Placement::kRejected),
      capacity(instance.m(), instance.h()),
      effective_capacity(instance.m(), instance.h()),
      knee(instance.m(), instance.h()),
      max_qos(instance.m(), instance.h()),
      server_usage_cost(instance.m(), 0.0),
      server_opex(instance.m(), 0.0),
      constraint_offsets(instance.n() + 1, 0) {
  const std::size_t n = instance.n();
  const std::size_t m = instance.m();
  const std::size_t h = instance.h();

  IAAS_EXPECT(instance.previous.vm_count() == n,
              "previous placement size mismatch with instance");
  highest_qos_guarantee = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < n; ++k) {
    const VmRequest& vm = instance.requests.vms[k];
    std::span<double> row = demand.row(k);
    for (std::size_t l = 0; l < h; ++l) {
      row[l] = vm.demand[l];
    }
    vm_qos_guarantee[k] = vm.qos_guarantee;
    vm_downtime_cost[k] = vm.downtime_cost;
    vm_migration_cost[k] = vm.migration_cost;
    previous_host[k] = instance.previous.server_of(k);
    if (std::isnan(vm.qos_guarantee) || std::isnan(highest_qos_guarantee)) {
      highest_qos_guarantee = std::numeric_limits<double>::quiet_NaN();
    } else {
      highest_qos_guarantee =
          std::max(highest_qos_guarantee, vm.qos_guarantee);
    }
  }

  for (std::size_t j = 0; j < m; ++j) {
    const Server& server = instance.infra.server(j);
    std::span<double> cap = capacity.row(j);
    std::span<double> ecap = effective_capacity.row(j);
    std::span<double> kn = knee.row(j);
    std::span<double> mq = max_qos.row(j);
    for (std::size_t l = 0; l < h; ++l) {
      cap[l] = server.capacity[l];
      ecap[l] = server.effective_capacity(l);
      kn[l] = clamp_knee(server.max_load[l]);
      mq[l] = server.max_qos[l];
    }
    server_usage_cost[j] = server.usage_cost;
    server_opex[j] = server.opex;
  }

  // VM -> constraint CSR: count, prefix-sum, fill.
  const auto& constraints = instance.requests.constraints;
  for (const auto& constraint : constraints) {
    for (std::uint32_t k : constraint.vms) {
      ++constraint_offsets[k + 1];
    }
  }
  std::partial_sum(constraint_offsets.begin(), constraint_offsets.end(),
                   constraint_offsets.begin());
  constraint_ids.resize(constraint_offsets[n]);
  std::vector<std::uint32_t> cursor(constraint_offsets.begin(),
                                    constraint_offsets.end() - 1);
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    for (std::uint32_t k : constraints[c].vms) {
      constraint_ids[cursor[k]++] = static_cast<std::uint32_t>(c);
    }
  }
}

PlacementState::PlacementState(const Instance& instance,
                               ObjectiveOptions options,
                               StateTracking tracking,
                               std::shared_ptr<const StateTables> tables)
    : instance_(&instance),
      options_(options),
      tracking_(tracking),
      checker_(instance),
      tables_(tables ? std::move(tables)
                     : std::make_shared<const StateTables>(instance)),
      placement_(instance.n()),
      used_(instance.m(), instance.h()),
      server_tail_(instance.m(), kNoVm),
      server_count_(instance.m(), 0),
      vm_next_(instance.n() + instance.m(), kNoVm),
      vm_prev_(instance.n(), kNoVm),
      server_cost_(2 * instance.m(), 0.0),
      overload_count_(instance.m(), 0),
      relation_ok_(instance.requests.constraints.size(), 1),
      scratch_row_(instance.h(), 0.0),
      server_epoch_(instance.m(), 0),
      constraint_epoch_(instance.requests.constraints.size(), 0) {
  if (tracking_ == StateTracking::kFull) {
    qos_scratch_ = Matrix<double>(instance.m(), instance.h());
  }
  rebuild_from_placement();
}

void PlacementState::rebuild(std::span<const std::int32_t> genes) {
  IAAS_EXPECT(genes.size() == instance_->n(),
              "placement size mismatch with instance");
  // Counted here rather than in rebuild_from_placement: the constructor
  // also scans (over an all-rejected placement), but the number of arena
  // states an engine builds varies with thread count and would make
  // the tally nondeterministic.
  telemetry::count(telemetry::Counter::kStateRebuilds);
  std::vector<std::int32_t>& dst = placement_.genes();
  std::copy(genes.begin(), genes.end(), dst.begin());
  rebuild_from_placement();
}

void PlacementState::rebuild(const Placement& placement) {
  rebuild(placement.genes());
}

void PlacementState::rebuild_from_placement() {
  const StateTables& t = *tables_;
  const std::size_t n = instance_->n();
  const std::size_t m = instance_->m();
  const std::size_t h = instance_->h();
  const std::int32_t* genes = placement_.genes().data();

  // VM pass, ascending k: link k at its server's tail (an empty server's
  // tail is its head slot, so no branch on an empty list) and add its
  // demand row, so every used row sums its VMs in ascending order from 0.
  // Each list is terminated once at the end, not after every link.
  used_.fill(0.0);
  std::iota(server_tail_.begin(), server_tail_.end(),
            static_cast<std::uint32_t>(n));
  std::fill(server_count_.begin(), server_count_.end(), 0u);
  double* used = used_.flat().data();
  const double* demand = t.demand.flat().data();
  std::uint32_t* next = vm_next_.data();
  std::uint32_t* prev = vm_prev_.data();
  std::uint32_t* tail = server_tail_.data();
  std::uint32_t* count = server_count_.data();
  for (std::size_t k = 0; k < n; ++k, demand += h) {
    if (genes[k] < 0) {
      continue;
    }
    const auto j = static_cast<std::size_t>(genes[k]);
    IAAS_DEBUG_EXPECT(j < m, "placement references unknown server");
    const auto vm = static_cast<std::uint32_t>(k);
    next[tail[j]] = vm;
    prev[k] = tail[j];
    tail[j] = vm;
    ++count[j];
    double* row = used + j * h;
    for (std::size_t l = 0; l < h; ++l) {
      row[l] += demand[l];
    }
  }
  for (std::size_t j = 0; j < m; ++j) {
    next[tail[j]] = kNoVm;  // an empty server's head slot included
  }

  // Migration pass over the previous-host table, ascending k.
  double migration = 0.0;
  if (tracking_ == StateTracking::kFull) {
    for (std::size_t k = 0; k < n; ++k) {
      migration += migration_of(k, genes[k]);
    }
  }
  total_migration_ = migration;

  // Fleet pass over the flat m×h matrices, with the totals in locals:
  // QoS cell by cell, then each server's worst QoS, overloads, usage and
  // downtime, summed in server order from 0 as refresh_server would.
  // This is score_server's arithmetic spelled out over the whole fleet,
  // the QoS cell by cell into a scratch: routing the rebuild through
  // score_server, one server at a time, made BM_RebuildLiveSet about 5%
  // slower (2.00-2.15 us against 1.88-1.96 us) and BM_Rebuild/256 about
  // 7% (micro_delta_eval, Release, 4-vCPU x86-64, interleaved runs).
  double usage_total = 0.0;
  double downtime_total = 0.0;
  std::uint32_t overload_total = 0;
  const double* ecap = t.effective_capacity.flat().data();
  if (tracking_ == StateTracking::kViolationsOnly) {
    for (std::size_t j = 0; j < m; ++j, used += h, ecap += h) {
      std::uint32_t overloads = 0;
      for (std::size_t l = 0; l < h; ++l) {
        overloads += used[l] > ecap[l] + kCapacityEps ? 1u : 0u;
      }
      overload_count_[j] = overloads;
      overload_total += overloads;
    }
  } else {
    const std::size_t cells = m * h;
    const double* cap = t.capacity.flat().data();
    const double* knee = t.knee.flat().data();
    const double* max_qos = t.max_qos.flat().data();
    double* qos = qos_scratch_.flat().data();
    // Loads first, in a loop of their own the compiler vectorises, then
    // Eq. 24 over them in place: fusing the two loops made perfbench's
    // sharded alloc_cpu_ms_p50 about 1.7% slower.
    for (std::size_t i = 0; i < cells; ++i) {
      qos[i] = used[i] / cap[i];
    }
    for (std::size_t i = 0; i < cells; ++i) {
      qos[i] = qos_at_knee(qos[i], knee[i], max_qos[i]);
    }
    for (std::size_t j = 0; j < m; ++j, used += h, ecap += h, qos += h) {
      double worst_qos = 1.0;
      std::uint32_t overloads = 0;
      for (std::size_t l = 0; l < h; ++l) {
        worst_qos = std::min(worst_qos, qos[l]);
        overloads += used[l] > ecap[l] + kCapacityEps ? 1u : 0u;
      }
      const double usage = usage_of(j, count[j]);
      const double downtime = downtime_on(j, worst_qos);
      usage_acc(j) = usage;
      downtime_acc(j) = downtime;
      overload_count_[j] = overloads;
      usage_total += usage;
      downtime_total += downtime;
      overload_total += overloads;
    }
  }
  total_usage_ = usage_total;
  total_downtime_ = downtime_total;
  capacity_violations_ = overload_total;

  relation_violations_ = 0;
  const auto& constraints = instance_->requests.constraints;
  for (std::size_t c = 0; c < constraints.size(); ++c) {
    const bool ok = checker_.relation_satisfied(constraints[c], placement_);
    relation_ok_[c] = ok ? 1 : 0;
    if (!ok) {
      ++relation_violations_;
    }
  }

  undo_.clear();
}

std::size_t PlacementState::rebase(std::span<const std::int32_t> genes) {
  IAAS_EXPECT(genes.size() == instance_->n(),
              "placement size mismatch with instance");
  const std::size_t n = instance_->n();
  const std::vector<std::int32_t>& cur = placement_.genes();
  std::size_t diff = 0;
  for (std::size_t k = 0; k < n; ++k) {
    diff += cur[k] != genes[k] ? 1u : 0u;
  }
  if (diff == 0) {
    undo_.clear();
    return 0;
  }
  // Past ~a quarter of the genes the per-diff bookkeeping (list edits,
  // touched-server refreshes, constraint rechecks) stops beating one
  // linear rebuild; fall back.
  if (diff * 4 > n) {
    rebuild(genes);
    return diff;
  }
  telemetry::count(telemetry::Counter::kStateRebases);

  if (++epoch_ == 0) {  // wrapped: every stale mark must be invalidated
    std::fill(server_epoch_.begin(), server_epoch_.end(), 0u);
    std::fill(constraint_epoch_.begin(), constraint_epoch_.end(), 0u);
    epoch_ = 1;
  }
  touched_servers_.clear();
  touched_constraints_.clear();

  for (std::size_t k = 0; k < n; ++k) {
    const std::int32_t from = placement_.server_of(k);
    const std::int32_t to = genes[k];
    if (from == to) {
      continue;
    }
    if (tracking_ == StateTracking::kFull) {
      total_migration_ += migration_of(k, to) - migration_of(k, from);
    }
    if (from >= 0) {
      detach_vm(k, static_cast<std::size_t>(from));
      touch_server(static_cast<std::uint32_t>(from));
    }
    placement_.assign(k, to);
    if (to >= 0) {
      attach_vm(k, static_cast<std::size_t>(to));
      touch_server(static_cast<std::uint32_t>(to));
    }
    for (std::uint32_t c : tables_->constraints_of(k)) {
      touch_constraint(c);
    }
  }

  for (std::uint32_t j : touched_servers_) {
    refresh_server(j);
  }
  const auto& constraints = instance_->requests.constraints;
  for (std::uint32_t c : touched_constraints_) {
    const bool ok = checker_.relation_satisfied(constraints[c], placement_);
    if (ok && relation_ok_[c] == 0) {
      --relation_violations_;
    } else if (!ok && relation_ok_[c] != 0) {
      ++relation_violations_;
    }
    relation_ok_[c] = ok ? 1 : 0;
  }

  undo_.clear();
  return diff;
}

void PlacementState::detach_vm(std::size_t k, std::size_t j) {
  const std::uint32_t next = vm_next_[k];
  const std::uint32_t prev = vm_prev_[k];
  vm_next_[prev] = next;  // prev is a member or j's head slot
  if (next == kNoVm) {
    server_tail_[j] = prev;
  } else {
    vm_prev_[next] = prev;
  }
  --server_count_[j];
  const std::span<const double> demand = tables_->demand.row(k);
  const std::span<double> used = used_.row(j);
  for (std::size_t l = 0; l < demand.size(); ++l) {
    used[l] -= demand[l];
  }
}

void PlacementState::attach_vm(std::size_t k, std::size_t j) {
  const std::uint32_t tail = server_tail_[j];
  vm_next_[tail] = static_cast<std::uint32_t>(k);
  vm_prev_[k] = tail;
  vm_next_[k] = kNoVm;
  server_tail_[j] = static_cast<std::uint32_t>(k);
  ++server_count_[j];
  const std::span<const double> demand = tables_->demand.row(k);
  const std::span<double> used = used_.row(j);
  for (std::size_t l = 0; l < demand.size(); ++l) {
    used[l] += demand[l];
  }
}

void PlacementState::touch_server(std::uint32_t j) {
  if (server_epoch_[j] != epoch_) {
    server_epoch_[j] = epoch_;
    touched_servers_.push_back(j);
  }
}

void PlacementState::touch_constraint(std::uint32_t c) {
  if (constraint_epoch_[c] != epoch_) {
    constraint_epoch_[c] = epoch_;
    touched_constraints_.push_back(c);
  }
}

double PlacementState::usage_of(std::size_t j, std::size_t vm_count) const {
  if (vm_count == 0) {
    return 0.0;
  }
  const StateTables& t = *tables_;
  const double count = static_cast<double>(vm_count);
  double usage = count * t.server_usage_cost[j];
  if (options_.opex_per_vm) {
    usage += count * t.server_opex[j];
  } else {
    usage += t.server_opex[j];
  }
  return usage;
}

double PlacementState::migration_of(std::size_t k,
                                    std::int32_t server) const {
  const std::int32_t previous = tables_->previous_host[k];
  // Non-short-circuit: the rebuild's migration pass calls this for every
  // VM, and whether a gene left its previous host is data-dependent.
  const bool moved = (server >= 0) & (previous >= 0) & (previous != server);
  if (!options_.topology_migration_weight) {
    return moved ? tables_->vm_migration_cost[k] : 0.0;
  }
  if (!moved) {
    return 0.0;
  }
  // Normalise by the fabric diameter (6 hops) so the weight stays in
  // (0, 1]; an on-host "move" costs nothing.
  const double weight =
      static_cast<double>(instance_->infra.fabric().hop_distance(
          static_cast<std::uint32_t>(previous),
          static_cast<std::uint32_t>(server))) /
      6.0;
  return tables_->vm_migration_cost[k] * weight;
}

double PlacementState::downtime_penalty(std::size_t k,
                                        double worst_qos) const {
  const double guarantee = tables_->vm_qos_guarantee[k];
  if (worst_qos >= guarantee) {
    return 0.0;
  }
  return tables_->vm_downtime_cost[k] * (1.0 - worst_qos / guarantee);
}

double PlacementState::downtime_on(std::size_t j, double worst_qos,
                                   std::uint32_t joining,
                                   std::uint32_t leaving) const {
  // Every guarantee is at most the highest one, so a worst QoS that
  // reaches it makes each penalty below exactly 0.0, and so their sum.  A
  // NaN threshold fails the compare and keeps the walk.
  if (worst_qos >= tables_->highest_qos_guarantee) {
    return 0.0;
  }
  double downtime = 0.0;
  if (joining != kNoVm) {
    downtime += downtime_penalty(joining, worst_qos);
  }
  for (std::uint32_t k = head_of(j); k != kNoVm; k = vm_next_[k]) {
    if (k != leaving) {
      downtime += downtime_penalty(k, worst_qos);
    }
  }
  return downtime;
}

// Inline: refresh_server and both ends of try_move take their own copy.
// As one out-of-line call, BM_ApplyRevert/256 ran about 5% slower.
inline PlacementState::ServerScore PlacementState::score_server(
    std::size_t j, std::span<const double> used_row, std::size_t count,
    std::uint32_t joining, std::uint32_t leaving) const {
  // Contiguous row spans; every per-attribute quantity of server j sits in
  // one cache-line run per table.
  const StateTables& t = *tables_;
  const std::span<const double> ecap = t.effective_capacity.row(j);
  ServerScore score;
  for (std::size_t l = 0; l < used_row.size(); ++l) {
    score.overloads += used_row[l] > ecap[l] + kCapacityEps ? 1u : 0u;
  }
  if (tracking_ == StateTracking::kViolationsOnly) {
    return score;
  }
  const std::span<const double> cap = t.capacity.row(j);
  const std::span<const double> knee = t.knee.row(j);
  const std::span<const double> max_qos = t.max_qos.row(j);
  double worst_qos = 1.0;
  for (std::size_t l = 0; l < used_row.size(); ++l) {
    worst_qos = std::min(
        worst_qos, qos_at_knee(used_row[l] / cap[l], knee[l], max_qos[l]));
  }
  score.downtime = downtime_on(j, worst_qos, joining, leaving);
  score.usage = usage_of(j, count);
  return score;
}

void PlacementState::refresh_server(std::size_t j) {
  const ServerScore score =
      score_server(j, used_.row(j), server_count_[j], kNoVm, kNoVm);
  total_usage_ += score.usage - usage_acc(j);
  total_downtime_ += score.downtime - downtime_acc(j);
  capacity_violations_ =
      capacity_violations_ - overload_count_[j] + score.overloads;
  usage_acc(j) = score.usage;
  downtime_acc(j) = score.downtime;
  overload_count_[j] = score.overloads;
}

ObjectiveDelta PlacementState::try_move(std::size_t k, std::int32_t target) {
  IAAS_DEBUG_EXPECT(k < instance_->n(), "vm index out of range");
  IAAS_DEBUG_EXPECT(target < static_cast<std::int32_t>(instance_->m()),
                    "target server out of range");
  const Instance& inst = *instance_;
  const std::size_t h = inst.h();
  const std::int32_t from = placement_.server_of(k);

  ObjectiveDelta delta;
  delta.objectives = objectives();
  if (from == target) {
    return delta;
  }
  const std::span<const double> demand = tables_->demand.row(k);
  const auto vm = static_cast<std::uint32_t>(k);

  // One path for both tracking modes: the overload counts read only used_
  // and the effective capacities, which either mode keeps current, and a
  // violations-only state scores (and stores) zero cost terms.
  double usage_delta = 0.0;
  double downtime_delta = 0.0;
  std::int32_t capacity_delta = 0;
  const auto add_delta = [&](std::size_t j, const ServerScore& score) {
    usage_delta += score.usage - usage_acc(j);
    downtime_delta += score.downtime - downtime_acc(j);
    capacity_delta += static_cast<std::int32_t>(score.overloads) -
                      static_cast<std::int32_t>(overload_count_[j]);
  };
  if (from >= 0) {
    const auto a = static_cast<std::size_t>(from);
    const std::span<const double> used = used_.row(a);
    for (std::size_t l = 0; l < h; ++l) {
      scratch_row_[l] = used[l] - demand[l];
    }
    add_delta(a, score_server(a, scratch_row_, server_count_[a] - 1, kNoVm,
                              vm));
  }
  if (target >= 0) {
    const auto b = static_cast<std::size_t>(target);
    const std::span<const double> used = used_.row(b);
    for (std::size_t l = 0; l < h; ++l) {
      scratch_row_[l] = used[l] + demand[l];
    }
    add_delta(b, score_server(b, scratch_row_, server_count_[b] + 1, vm,
                              kNoVm));
  }
  const double migration_delta =
      tracking_ == StateTracking::kFull
          ? migration_of(k, target) - migration_of(k, from)
          : 0.0;

  std::int32_t relation_delta = 0;
  const std::span<const std::uint32_t> mentions = tables_->constraints_of(k);
  if (!mentions.empty()) {
    // Evaluate k's constraints against the hypothetical placement; the
    // temporary assignment is restored before returning.
    placement_.assign(k, target);
    const auto& constraints = inst.requests.constraints;
    for (std::uint32_t c : mentions) {
      const bool ok = checker_.relation_satisfied(constraints[c], placement_);
      relation_delta += (ok ? 0 : 1) - (relation_ok_[c] != 0 ? 0 : 1);
    }
    placement_.assign(k, from);
  }

  delta.objectives.usage_cost += usage_delta;
  delta.objectives.downtime_cost += downtime_delta;
  delta.objectives.migration_cost += migration_delta;
  delta.aggregate_delta = usage_delta + downtime_delta + migration_delta;
  delta.violations_delta = capacity_delta + relation_delta;
  return delta;
}

void PlacementState::do_move(std::size_t k, std::int32_t target) {
  const std::int32_t from = placement_.server_of(k);
  if (from == target) {
    return;
  }

  if (tracking_ == StateTracking::kFull) {
    total_migration_ += migration_of(k, target) - migration_of(k, from);
  }

  if (from >= 0) {
    detach_vm(k, static_cast<std::size_t>(from));
  }
  placement_.assign(k, target);
  if (target >= 0) {
    attach_vm(k, static_cast<std::size_t>(target));
  }

  if (from >= 0) {
    refresh_server(static_cast<std::size_t>(from));
  }
  if (target >= 0) {
    refresh_server(static_cast<std::size_t>(target));
  }

  const auto& constraints = instance_->requests.constraints;
  for (std::uint32_t c : tables_->constraints_of(k)) {
    const bool ok = checker_.relation_satisfied(constraints[c], placement_);
    if (ok && relation_ok_[c] == 0) {
      --relation_violations_;
    } else if (!ok && relation_ok_[c] != 0) {
      ++relation_violations_;
    }
    relation_ok_[c] = ok ? 1 : 0;
  }
}

void PlacementState::apply_move(std::size_t k, std::int32_t target) {
  telemetry::count(telemetry::Counter::kDeltaMoves);
  undo_.push_back(Move{k, placement_.server_of(k)});
  do_move(k, target);
}

void PlacementState::revert() {
  IAAS_EXPECT(!undo_.empty(), "revert without an applied move");
  const Move move = undo_.back();
  undo_.pop_back();
  do_move(move.vm, move.target);
}

bool PlacementState::is_valid_allocation(std::size_t k,
                                         std::size_t j) const {
  const Instance& inst = *instance_;
  const StateTables& t = *tables_;
  const std::span<const double> used = used_.row(j);
  const std::span<const double> ecap = t.effective_capacity.row(j);
  const std::span<const double> demand = t.demand.row(k);
  const bool already_there =
      placement_.server_of(k) == static_cast<std::int32_t>(j);
  for (std::size_t l = 0; l < used.size(); ++l) {
    const double add = already_there ? 0.0 : demand[l];
    if (used[l] + add > ecap[l] + kCapacityEps) {
      return false;
    }
  }

  const std::uint32_t dc_j = inst.infra.datacenter_of(j);
  for (std::uint32_t c : t.constraints_of(k)) {
    const PlacementConstraint& constraint = inst.requests.constraints[c];
    for (std::uint32_t peer : constraint.vms) {
      if (peer == k || !placement_.is_assigned(peer)) {
        continue;
      }
      const auto peer_server =
          static_cast<std::size_t>(placement_.server_of(peer));
      bool ok = true;
      switch (constraint.kind) {
        case RelationKind::kSameServer:
          ok = peer_server == j;
          break;
        case RelationKind::kSameDatacenter:
          ok = inst.infra.datacenter_of(peer_server) == dc_j;
          break;
        case RelationKind::kDifferentServers:
          ok = peer_server != j;
          break;
        case RelationKind::kDifferentDatacenters:
          ok = inst.infra.datacenter_of(peer_server) != dc_j;
          break;
      }
      if (!ok) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace iaas
