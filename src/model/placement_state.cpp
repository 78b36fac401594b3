#include "model/placement_state.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <type_traits>

#include "common/telemetry.h"
#include "model/load_model.h"

namespace iaas {
namespace {

// The largest double `used` with used / cap <= knee in floating point, for
// a positive finite cap and a knee in [0, 1): 0.0 qualifies and cap does
// not, and the quotient is monotone in `used`, so exactly the doubles up
// to it qualify.  knee * cap lands within an ulp or two of it, so a few
// nextafter steps settle it; a knee of 0 (or a subnormal product) leaves
// it among the subnormals up to cap / 2 ulps away, and a bisection over
// the bit patterns of [0, cap], which order as their values, finds it.
double knee_threshold(double cap, double knee) {
  const auto cold = [cap, knee](double used) { return used / cap <= knee; };
  constexpr int kSteps = 4;
  double used = knee * cap;
  for (int step = 0; step < kSteps; ++step) {
    if (!cold(used)) {
      used = std::nextafter(used, 0.0);
      continue;
    }
    const double up =
        std::nextafter(used, std::numeric_limits<double>::infinity());
    if (!cold(up)) {
      return used;
    }
    used = up;
  }
  std::uint64_t lo = 0;  // +0.0: cold
  auto hi = std::bit_cast<std::uint64_t>(cap);  // cap / cap = 1 > knee
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (cold(std::bit_cast<double>(mid)) ? lo : hi) = mid;
  }
  return std::bit_cast<double>(lo);
}

}  // namespace

StateTables::StateTables(const Instance& instance)
    : demand(instance.n(), instance.h()),
      vm_qos_guarantee(instance.n(), 0.0),
      vm_downtime_cost(instance.n(), 0.0),
      vm_migration_cost(instance.n(), 0.0),
      previous_host(instance.n(), Placement::kRejected),
      capacity(instance.m(), instance.h()),
      knee(instance.m(), instance.h()),
      max_qos(instance.m(), instance.h()),
      server_usage_cost(instance.m(), 0.0),
      server_opex(instance.m(), 0.0),
      overload_threshold(instance.m(), instance.h()),
      hot_threshold(instance.m(), instance.h()),
      cold_worst_qos(instance.m(), 1.0),
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
    std::span<double> kn = knee.row(j);
    std::span<double> mq = max_qos.row(j);
    std::span<double> overload = overload_threshold.row(j);
    std::span<double> hot = hot_threshold.row(j);
    for (std::size_t l = 0; l < h; ++l) {
      cap[l] = server.capacity[l];
      kn[l] = clamp_knee(server.max_load[l]);
      mq[l] = server.max_qos[l];
      overload[l] = server.effective_capacity(l) + kCapacityEps;
      hot[l] = knee_threshold(cap[l], kn[l]);
      cold_worst_qos[j] = std::min(cold_worst_qos[j], mq[l]);
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
      occupied_(instance.m(), 0),
      occupied_worst_qos_(instance.m(), 0.0),
      server_tail_(instance.m(), kNoVm),
      server_count_(instance.m(), 0),
      vm_next_(instance.n() + instance.m(), kNoVm),
      vm_prev_(instance.n(), kNoVm),
      server_cost_(2 * instance.m(), 0.0),
      overload_count_(instance.m(), 0),
      overload_bits_((instance.m() + 63) / 64, 0),
      relation_ok_(instance.requests.constraints.size(), 1),
      scratch_row_(instance.h(), 0.0),
      server_epoch_(instance.m(), 0),
      constraint_epoch_(instance.requests.constraints.size(), 0) {
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
  const bool full = tracking_ == StateTracking::kFull;

  // VM pass, ascending k: link k at its server's tail (an empty server's
  // tail is its head slot, so no branch on an empty list), add its demand
  // row, so every used row sums its VMs in ascending order from 0, and,
  // under kFull, its masked migration term, so the migration total sums in
  // ascending order too (a rejected VM is skipped, and its term would be
  // +0.0 anyway).  The mode picks one of two copies of the loop: summing
  // the term under kViolationsOnly too made BM_Rebuild/64's
  // violations-only rebuild about 30% slower (4.6-5.0k TSC cycles against
  // 3.5-3.8k; Release, 4-vCPU x86-64, interleaved runs).  Each list is
  // terminated once at the end, not after every link.
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
  const auto vm_pass = [&](auto with_migration) {
    double migration = 0.0;
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
      if constexpr (decltype(with_migration)::value) {
        migration += migration_of(k, genes[k]);
      }
    }
    return migration;
  };
  total_migration_ =
      full ? vm_pass(std::true_type{}) : vm_pass(std::false_type{});

  // Terminate every list (an empty server's head slot included) and list
  // the occupied servers, ascending, without a branch.
  std::uint32_t* occupied = occupied_.data();
  std::size_t occupied_count = 0;
  for (std::size_t j = 0; j < m; ++j) {
    next[tail[j]] = kNoVm;
    occupied[occupied_count] = static_cast<std::uint32_t>(j);
    occupied_count += count[j] != 0 ? 1u : 0u;
  }

  // Fleet pass over the occupied servers, ascending, with the totals in
  // locals: refresh_server's arithmetic, spelled out.  An empty server's
  // used row is all zero, below every threshold, so it scores +0.0 usage,
  // +0.0 downtime and no overload: its slots are zeroed in bulk, and
  // skipping its +0.0 terms leaves the sums bit for bit as a pass over
  // every server leaves them (a sum that starts at +0.0 never holds -0.0,
  // the one value adding +0.0 changes).  The worst QoS takes a loop of its
  // own, so a hot server's exp calls overlap across servers and the
  // downtime skip below branches on a value already at hand: scored in one
  // loop, a rebuild of BM_Rebuild/64's placement (two servers in three
  // past a knee) took about 10% more cycles (8.1-8.7k TSC cycles against
  // 7.3-7.8k; Release, 4-vCPU x86-64, interleaved runs).
  std::fill(server_cost_.begin(), server_cost_.end(), 0.0);
  std::fill(overload_count_.begin(), overload_count_.end(), 0u);
  std::fill(overload_bits_.begin(), overload_bits_.end(), 0u);
  double* worst_qos = occupied_worst_qos_.data();
  if (full) {
    for (std::size_t i = 0; i < occupied_count; ++i) {
      worst_qos[i] = worst_qos_of(occupied[i], used_.row(occupied[i]));
    }
  }
  double usage_total = 0.0;
  double downtime_total = 0.0;
  std::uint32_t overload_total = 0;
  const double* overload_threshold = t.overload_threshold.flat().data();
  for (std::size_t i = 0; i < occupied_count; ++i) {
    const std::size_t j = occupied[i];
    const double* row = used + j * h;
    const double* overload = overload_threshold + j * h;
    std::uint32_t overloads = 0;
    for (std::size_t l = 0; l < h; ++l) {
      overloads += row[l] > overload[l] ? 1u : 0u;
    }
    overload_count_[j] = overloads;
    overload_bits_[j / 64] |= std::uint64_t{overloads != 0} << (j % 64);
    overload_total += overloads;
    if (full) {
      const double usage = usage_of(j, count[j]);
      const double downtime = downtime_on(j, worst_qos[i]);
      usage_acc(j) = usage;
      downtime_acc(j) = downtime;
      usage_total += usage;
      downtime_total += downtime;
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
  // Branch-free, the cost masked by its bits: the rebuild's VM pass calls
  // this for every placed VM, and whether a gene left its previous host
  // is data-dependent (about half do in a raw offspring).  GCC compiles
  // `moved ? cost : 0.0` into two jumps, which cost the rebuild inside
  // the engine about 1.5k TSC cycles of mispredictions on `strategic`.
  const bool moved = (server >= 0) & (previous >= 0) & (previous != server);
  if (!options_.topology_migration_weight) {
    return std::bit_cast<double>(
        std::bit_cast<std::uint64_t>(tables_->vm_migration_cost[k]) &
        (std::uint64_t{0} - static_cast<std::uint64_t>(moved)));
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

// Inline: the rebuild's fleet pass and score_server take their own copy.
// The threshold compares decide Eq. 24's flat branch exactly as the
// division would (StateTables::hot_threshold), so a server with no cell
// past its knee reads its cold row's minimum; a hot one runs Eq. 24 on
// every cell, in attribute order, as the division-based code did.
inline double PlacementState::worst_qos_of(
    std::size_t j, std::span<const double> used_row) const {
  const StateTables& t = *tables_;
  const std::span<const double> hot = t.hot_threshold.row(j);
  bool past_knee = false;
  for (std::size_t l = 0; l < used_row.size(); ++l) {
    past_knee |= !(used_row[l] <= hot[l]);
  }
  if (!past_knee) {
    return t.cold_worst_qos[j];
  }
  const std::span<const double> cap = t.capacity.row(j);
  const std::span<const double> knee = t.knee.row(j);
  const std::span<const double> max_qos = t.max_qos.row(j);
  double worst_qos = 1.0;
  for (std::size_t l = 0; l < used_row.size(); ++l) {
    worst_qos = std::min(
        worst_qos, qos_at_knee(used_row[l] / cap[l], knee[l], max_qos[l]));
  }
  return worst_qos;
}

// Inline: refresh_server and both ends of try_move take their own copy.
// As one out-of-line call, BM_ApplyRevert/256 ran about 5% slower.
inline PlacementState::ServerScore PlacementState::score_server(
    std::size_t j, std::span<const double> used_row, std::size_t count,
    std::uint32_t joining, std::uint32_t leaving) const {
  // Contiguous row spans; every per-attribute quantity of server j sits in
  // one cache-line run per table.
  const std::span<const double> overload = tables_->overload_threshold.row(j);
  ServerScore score;
  for (std::size_t l = 0; l < used_row.size(); ++l) {
    score.overloads += used_row[l] > overload[l] ? 1u : 0u;
  }
  if (tracking_ == StateTracking::kViolationsOnly) {
    return score;
  }
  score.downtime =
      downtime_on(j, worst_qos_of(j, used_row), joining, leaving);
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
  const std::uint64_t bit = std::uint64_t{1} << (j % 64);
  std::uint64_t& word = overload_bits_[j / 64];
  word = score.overloads != 0 ? word | bit : word & ~bit;
}

std::size_t PlacementState::next_overloaded(std::size_t j) const {
  const std::size_t m = instance_->m();
  if (j >= m) {
    return m;
  }
  // Bits past m are never set, so any bit found names a server.
  std::size_t w = j / 64;
  std::uint64_t word = overload_bits_[w] & (~std::uint64_t{0} << (j % 64));
  while (word == 0) {
    if (++w == overload_bits_.size()) {
      return m;
    }
    word = overload_bits_[w];
  }
  return w * 64 + static_cast<std::size_t>(std::countr_zero(word));
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

ServerRange PlacementState::open_servers(std::size_t k) const {
  const Instance& inst = *instance_;
  const std::uint32_t dc_size = inst.infra.fabric().servers_per_datacenter();
  ServerRange open{0, static_cast<std::uint32_t>(inst.m())};
  for (std::uint32_t c : tables_->constraints_of(k)) {
    const PlacementConstraint& constraint = inst.requests.constraints[c];
    const bool same_server = constraint.kind == RelationKind::kSameServer;
    if (!same_server && constraint.kind != RelationKind::kSameDatacenter) {
      continue;
    }
    for (std::uint32_t peer : constraint.vms) {
      if (peer == k || !placement_.is_assigned(peer)) {
        continue;
      }
      // Servers are numbered datacenter-major, so the peer's datacenter
      // is one contiguous index range.
      const auto host = static_cast<std::uint32_t>(placement_.server_of(peer));
      const std::uint32_t lo = same_server ? host : host / dc_size * dc_size;
      const std::uint32_t hi = same_server ? host + 1 : lo + dc_size;
      open.first = std::max(open.first, lo);
      open.last = std::min(open.last, hi);
      if (open.empty()) {
        return {};
      }
    }
  }
  return open;
}

std::size_t PlacementState::first_valid_from(std::size_t k,
                                             std::size_t start) const {
  const std::size_t m = instance_->m();
  const ServerRange open = open_servers(k);
  const auto first_valid = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t j = lo; j < hi; ++j) {
      if (is_valid_allocation(k, j)) {
        return j;
      }
    }
    return m;
  };
  const std::size_t j =
      first_valid(std::max<std::size_t>(start, open.first), open.last);
  return j < m ? j
               : first_valid(open.first,
                             std::min<std::size_t>(start, open.last));
}

bool PlacementState::is_valid_allocation(std::size_t k,
                                         std::size_t j) const {
  const Instance& inst = *instance_;
  const StateTables& t = *tables_;
  const std::span<const double> used = used_.row(j);
  const std::span<const double> overload = t.overload_threshold.row(j);
  const std::span<const double> demand = t.demand.row(k);
  const bool already_there =
      placement_.server_of(k) == static_cast<std::int32_t>(j);
  for (std::size_t l = 0; l < used.size(); ++l) {
    const double add = already_there ? 0.0 : demand[l];
    if (used[l] + add > overload[l]) {
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
