// Incremental (delta) evaluation engine for single-VM relocations.
//
// A PlacementState owns one placement plus every accumulator needed to
// produce its objectives (Eqs. 22-26) and violation counts (Eqs. 16-21):
// per-server allocated demand, per-server usage and downtime cost terms
// and overload counts, the per-server VM membership lists, the
// per-constraint satisfied flags, and the three objective totals.  Loads
// and QoS (Eqs. 24-25) are not kept: every server term is scored from its
// used row on demand.
// Invariants (see DESIGN.md §7): after construction, a rebase or any
// apply_move/revert, all accumulators equal what a full rebuild() of the
// same placement produces, and the violation counts equal
// ConstraintChecker::check's from-scratch audit.
// The same accumulators answer the paper's isValidAllocation (Fig. 6), so
// every placer, from Round-Robin to the CP search, builds its placement
// by committing moves into a state; open_servers narrows each of their
// scans to the servers a VM's relations leave open, and an overload
// bitset lists the overloaded servers for the repairs.
//
// Relocating VM k from server a to server b only changes rows a and b of
// every per-server quantity, the constraints that mention k, and k's own
// migration term — so try_move scores a candidate move in
// O(h + |VMs on a| + |VMs on b| + |constraints of k|) instead of the
// O(n·m·h) full rebuild.  This is the standard scaling lever of the VM
// placement literature (move-based neighbourhoods with incremental
// objective bookkeeping) applied to the paper's tabu + NSGA-III stack.
//
// Memory layout (DESIGN.md §7): structure-of-arrays throughout.  All
// instance-derived inputs the hot loops read (per-VM demand rows, cost
// scalars and previous hosts, per-server capacity/knee/QoS rows and cost
// scalars, the VM→constraint adjacency) live in an immutable StateTables,
// flattened into contiguous matrices, scalar arrays, and a CSR index —
// shareable between every state built against the same Instance, so an
// engine's per-slot states pay the flattening once.  The mutable side
// is equally flat: per-server membership is an intrusive doubly-linked
// list over plain arrays (tail/next/prev, with each server's head in a
// slot of next) with O(1) attach/detach and no per-server heap vectors,
// and the per-server cost accumulators are striped into one contiguous
// buffer.  One private score_server scores a server's terms from a used
// row over contiguous row spans: refresh_server stores its result for a
// committed move, and try_move scores both ends of a candidate with it.
//
// The full rebuild, once per individual in the EA, costs what the
// placement occupies and heats, not the m×h fleet: a VM pass (link each
// VM at its server's tail, add its demand row and, under kFull, its
// masked migration cost), a branch-free compaction listing the occupied
// servers, a fleet pass over those (worst QoS, then overloads, usage and
// downtime, totals in locals), and the relation checks.  Empty servers
// score +0.0 and no overload, so their slots are zeroed in bulk and their
// terms skipped.
// Eq. 24 is flat below each cell's knee, and StateTables::hot_threshold
// decides that branch with one compare exactly as used / capacity <= knee
// would, so only a server with a cell past its knee divides and calls exp;
// the others read their cold row's minimum QoS.  Every sum runs in one
// fixed order — used rows by ascending VM from 0, usage and downtime by
// ascending server from 0, migration by ascending VM, loads as
// used / capacity — the order of a refresh_server call per server, so a
// rebuild equals that loop bit for bit (the RebuildDifferential test keeps
// it as the reference) and every pinned history holds.  The downtime walk
// over a server's members runs only when its worst QoS is below the
// instance's highest guarantee: at or above it every Eq. 23 penalty is
// exactly 0.0, so the skipped sum is 0.0 too (a NaN guarantee disables
// the skip).
//
// The invariant also powers the fused repair-as-evaluation pipeline
// (DESIGN.md §8): the NSGA engine rebuilds a full-tracking state from
// each individual's genes, its one repair hook (TabuRepair::repair_state,
// or CpRepair::repair_state, which closes with a rebuild) repairs the
// state in place, and the engine reads the objectives and violation
// counts straight out of the accumulators afterwards — the repair's own
// bookkeeping IS the evaluation, no post-repair rebuild.  A rebase
// repositions a state with a gene-diff (touching only the servers and
// constraints the diff affects); no allocator calls it, and outside the
// micro benches and tests only perfbench's layer probe reaches it.
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "model/constraint_checker.h"
#include "model/instance.h"
#include "model/objective_types.h"
#include "model/placement.h"

namespace iaas {

// Immutable, instance-derived SoA tables: everything the delta engine's
// hot loops read, flattened out of the AoS Server/VmRequest structs and
// the per-VM constraint lists.  Built once per Instance and shared (by
// shared_ptr) across every PlacementState of that instance —
// the engine arenas and repairers construct states without re-doing the
// O(n·h + m·h + constraints) flattening.
struct StateTables {
  explicit StateTables(const Instance& instance);

  Matrix<double> demand;                    // n×h: C_kl rows
  std::vector<double> vm_qos_guarantee;     // n: C^Q_k
  std::vector<double> vm_downtime_cost;     // n: C^U_k
  std::vector<double> vm_migration_cost;    // n: M_k
  std::vector<std::int32_t> previous_host;  // n: X^t server or kRejected
  // Highest C^Q_k of the instance, or NaN when some guarantee is NaN.  A
  // server whose worst QoS reaches it owes no VM any downtime (Eq. 23), so
  // the downtime walk over its members is skipped; NaN keeps every walk.
  double highest_qos_guarantee = 0.0;

  Matrix<double> capacity;                  // m×h: P_jl
  Matrix<double> knee;                      // m×h: clamp_knee(L^M_jl)
  Matrix<double> max_qos;                   // m×h: Q^M_jl
  std::vector<double> server_usage_cost;    // m: U_j
  std::vector<double> server_opex;          // m: E_j

  // Eq. 16's right-hand side as every capacity compare adds it up,
  // P_jl * F_jl + kCapacityEps: attribute l of a used row is exceeded
  // exactly when used > overload_threshold.
  Matrix<double> overload_threshold;        // m×h
  // Eq. 24's knee as a bound on used: the largest double u with
  // u / P_jl <= knee_jl in floating point.  Correctly rounded division is
  // monotone in its numerator, so !(used <= hot_threshold) holds exactly
  // when !(used / P_jl <= knee_jl), for every used (NaN included): the
  // cell is past its knee, and only then does Eq. 24 divide and call exp.
  Matrix<double> hot_threshold;             // m×h
  // min(1, Q^M_j0, ..., Q^M_j(h-1)) in attribute order: the worst QoS of
  // server j while no cell of it is past its knee.
  std::vector<double> cold_worst_qos;       // m

  // CSR adjacency: constraint ids mentioning VM k are
  // constraint_ids[constraint_offsets[k] .. constraint_offsets[k+1]).
  std::vector<std::uint32_t> constraint_offsets;  // n+1
  std::vector<std::uint32_t> constraint_ids;      // flat

  [[nodiscard]] std::span<const std::uint32_t> constraints_of(
      std::size_t k) const {
    return {constraint_ids.data() + constraint_offsets[k],
            constraint_offsets[k + 1] - constraint_offsets[k]};
  }
};

// What a PlacementState keeps current.  kViolationsOnly maintains just the
// demand accumulators and violation counters — the placers need nothing
// else, and skipping the QoS/downtime/usage scoring on every rebuild,
// committed move and scored candidate (an exp() per attribute per
// affected server) keeps them as cheap as the capacity-only bookkeeping
// it replaced.  In that mode objectives(), aggregate() and the objective
// fields of try_move results are unspecified.  try_move scores both
// modes on one path, so its violations_delta is exact in either; only
// tests ask it of a violations-only state.
enum class StateTracking { kFull, kViolationsOnly };

// A contiguous run of server indices, [first, last); empty when
// first >= last.
struct ServerRange {
  std::uint32_t first = 0;
  std::uint32_t last = 0;

  [[nodiscard]] bool empty() const { return first >= last; }
  [[nodiscard]] bool contains(std::size_t j) const {
    return first <= j && j < last;
  }
};

// Outcome of scoring one candidate relocation.
struct ObjectiveDelta {
  // Objective totals as if the move were applied.
  ObjectiveVector objectives;
  // objectives.aggregate() minus the current aggregate.
  double aggregate_delta = 0.0;
  // Change in capacity + relationship violations (negative = repairs).
  std::int32_t violations_delta = 0;
};

class PlacementState {
 public:
  // Sentinel terminating the intrusive per-server membership lists.
  static constexpr std::uint32_t kNoVm = 0xFFFFFFFFu;

  // `tables` may be shared across states of the same instance; when null,
  // the state builds (and owns) its own.
  explicit PlacementState(const Instance& instance,
                          ObjectiveOptions options = {},
                          StateTracking tracking = StateTracking::kFull,
                          std::shared_ptr<const StateTables> tables = nullptr);

  // Full O(n + m·h + constraints) rebuild — the non-incremental
  // repositioning path; every other member keeps the accumulators in
  // sync.
  void rebuild(std::span<const std::int32_t> genes);
  void rebuild(const Placement& placement);

  // Gene-diff repositioning: moves the state to `genes` by editing only
  // the servers and constraints the diff touches —
  // O(diff·h + |affected servers|·(h + members) + |affected constraints|)
  // instead of a full rebuild.  Falls back to rebuild() internally when
  // the diff is too large to pay off.  Like rebuild(), clears the undo
  // history.  Returns the number of differing genes.
  std::size_t rebase(std::span<const std::int32_t> genes);

  // Scores relocating VM k to `target` (server id or Placement::kRejected)
  // without changing the observable state.
  ObjectiveDelta try_move(std::size_t k, std::int32_t target);

  // Commits relocating VM k to `target` (try_move is not required first).
  void apply_move(std::size_t k, std::int32_t target);
  // Undoes applied moves in LIFO order (any depth, back to the last
  // rebuild/rebase).
  void revert();
  [[nodiscard]] std::size_t applied_moves() const { return undo_.size(); }

  // --- objective accessors ---
  [[nodiscard]] ObjectiveVector objectives() const {
    ObjectiveVector out;
    out.usage_cost = total_usage_;
    out.downtime_cost = total_downtime_;
    out.migration_cost = total_migration_;
    return out;
  }
  [[nodiscard]] double aggregate() const {
    return total_usage_ + total_downtime_ + total_migration_;
  }

  // --- violation accessors ---
  [[nodiscard]] std::uint32_t capacity_violations() const {
    return capacity_violations_;
  }
  [[nodiscard]] std::uint32_t relation_violations() const {
    return relation_violations_;
  }
  [[nodiscard]] std::uint32_t total_violations() const {
    return capacity_violations_ + relation_violations_;
  }
  [[nodiscard]] bool server_overloaded(std::size_t j) const {
    return overload_count_[j] > 0;
  }
  // The first overloaded server at or after j, or m() when none is: one
  // word of the overload bitset per 64 servers, so a walk over the
  // overloaded servers skips the rest without reading their counts.
  [[nodiscard]] std::size_t next_overloaded(std::size_t j) const;
  // True when relationship constraint c (an index into the instance's
  // constraint list) holds among its assigned members.
  [[nodiscard]] bool relation_satisfied(std::size_t c) const {
    return relation_ok_[c] != 0;
  }
  // isValidAllocation of the paper's Fig. 6: true when VM k can sit on
  // server j without exceeding its effective capacity (k's demand counts
  // only when it is not already there) or breaking a relationship
  // constraint with an assigned peer.  Reads server j's used row and
  // k's constraints from the CSR adjacency: O(h + peers of k).
  [[nodiscard]] bool is_valid_allocation(std::size_t k, std::size_t j) const;
  // The servers that VM k's assigned same-server and same-datacenter peers
  // leave open: every server, one datacenter's contiguous index range, one
  // server, or none (peers on two servers or in two datacenters).  A
  // server outside the range fails is_valid_allocation's relation check
  // whatever its load, so a scan for k's first valid server may visit
  // only the range, in its own order, and finds the same server.
  // O(peers of k).
  [[nodiscard]] ServerRange open_servers(std::size_t k) const;
  // The first server from `start`, wrapping past the last to 0, where VM
  // k is a valid allocation, or m() when none is (from 0 that is the
  // lowest index).  Visits only open_servers(k): those at or past
  // `start`, then those before it.
  [[nodiscard]] std::size_t first_valid_from(std::size_t k,
                                             std::size_t start) const;

  // --- structure accessors ---
  [[nodiscard]] const Placement& placement() const { return placement_; }
  // Allocated demand per (server, attribute) — the accumulator the
  // placers and is_valid_allocation read.
  [[nodiscard]] const Matrix<double>& used() const { return used_; }

  // Forward iteration over the VMs hosted on one server (the intrusive
  // list; order is maintenance order, deterministic for a fixed operation
  // sequence but unspecified beyond that).
  class MemberIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint32_t*;
    using reference = std::uint32_t;
    MemberIterator() = default;
    MemberIterator(const std::uint32_t* next, std::uint32_t current)
        : next_(next), current_(current) {}
    std::uint32_t operator*() const { return current_; }
    MemberIterator& operator++() {
      current_ = next_[current_];
      return *this;
    }
    MemberIterator operator++(int) {
      MemberIterator tmp = *this;
      ++*this;
      return tmp;
    }
    friend bool operator==(const MemberIterator& a, const MemberIterator& b) {
      return a.current_ == b.current_;
    }

   private:
    const std::uint32_t* next_ = nullptr;
    std::uint32_t current_ = kNoVm;
  };

  class MemberRange {
   public:
    MemberRange(const std::uint32_t* next, std::uint32_t head,
                std::size_t count)
        : next_(next), head_(head), count_(count) {}
    [[nodiscard]] MemberIterator begin() const { return {next_, head_}; }
    [[nodiscard]] MemberIterator end() const { return {next_, kNoVm}; }
    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }

   private:
    const std::uint32_t* next_;
    std::uint32_t head_;
    std::size_t count_;
  };

  [[nodiscard]] MemberRange vms_on(std::size_t j) const {
    return {vm_next_.data(), head_of(j), server_count_[j]};
  }
  [[nodiscard]] std::size_t vm_count_on(std::size_t j) const {
    return server_count_[j];
  }

  [[nodiscard]] const Instance& instance() const { return *instance_; }
  [[nodiscard]] const ObjectiveOptions& options() const { return options_; }
  [[nodiscard]] const std::shared_ptr<const StateTables>& tables() const {
    return tables_;
  }

 private:
  // One server's terms: Eq. 22 usage and Eq. 23 downtime (both 0 under
  // kViolationsOnly) and its count of exceeded attributes (Eq. 16).
  struct ServerScore {
    double usage = 0.0;
    double downtime = 0.0;
    std::uint32_t overloads = 0;
  };

  // The full rebuild: a VM pass (membership, used rows and migration), a
  // fleet pass over the occupied servers (overloads, usage and downtime),
  // then the relation constraints.
  void rebuild_from_placement();
  // Eq. 24's worst QoS of server j at `used_row`: the cold row's minimum
  // unless some cell is past its hot threshold.
  [[nodiscard]] double worst_qos_of(std::size_t j,
                                    std::span<const double> used_row) const;
  // Scores server j as if its used row were `used_row` and it hosted
  // `count` VMs: its current members, with VM `joining` added to and VM
  // `leaving` left out of the downtime walk (kNoVm for neither).
  [[nodiscard]] ServerScore score_server(std::size_t j,
                                         std::span<const double> used_row,
                                         std::size_t count,
                                         std::uint32_t joining,
                                         std::uint32_t leaving) const;
  // Stores server j's score from used_ and its membership list, updating
  // the totals.
  void refresh_server(std::size_t j);
  // Eq. 23 downtime of server j's members at `worst_qos`, with VM
  // `joining` added first and VM `leaving` left out (kNoVm for neither);
  // 0 without a walk when worst_qos reaches the highest guarantee.
  [[nodiscard]] double downtime_on(std::size_t j, double worst_qos,
                                   std::uint32_t joining = kNoVm,
                                   std::uint32_t leaving = kNoVm) const;
  // Commits a move into every accumulator (no undo bookkeeping).
  void do_move(std::size_t k, std::int32_t target);

  // Membership + demand edits (list unlink/link, used_ row update);
  // placement_ itself is the caller's job.
  void detach_vm(std::size_t k, std::size_t j);
  void attach_vm(std::size_t k, std::size_t j);

  // Epoch-deduplicated scratch marks for rebase.
  void touch_server(std::uint32_t j);
  void touch_constraint(std::uint32_t c);

  [[nodiscard]] double usage_of(std::size_t j, std::size_t vm_count) const;
  [[nodiscard]] double migration_of(std::size_t k, std::int32_t server) const;
  [[nodiscard]] double downtime_penalty(std::size_t k,
                                        double worst_qos) const;

  // Server j's list head lives in slot n + j of vm_next_.
  [[nodiscard]] std::uint32_t head_of(std::size_t j) const {
    return vm_next_[placement_.vm_count() + j];
  }

  [[nodiscard]] double& usage_acc(std::size_t j) { return server_cost_[j]; }
  [[nodiscard]] double& downtime_acc(std::size_t j) {
    return server_cost_[instance_->m() + j];
  }
  [[nodiscard]] double usage_acc(std::size_t j) const {
    return server_cost_[j];
  }
  [[nodiscard]] double downtime_acc(std::size_t j) const {
    return server_cost_[instance_->m() + j];
  }

  const Instance* instance_;
  ObjectiveOptions options_;
  StateTracking tracking_;
  ConstraintChecker checker_;
  std::shared_ptr<const StateTables> tables_;

  Placement placement_;
  Matrix<double> used_;  // raw allocated demand per (server, attribute)
  // The rebuild's scratch, stale after any other call: the servers
  // hosting a VM, ascending, and the worst QoS of each (kFull only).
  std::vector<std::uint32_t> occupied_;
  std::vector<double> occupied_worst_qos_;

  // Intrusive per-server membership: flat tail/next/prev arrays, O(1)
  // attach/detach, zero allocation on any path after construction.  Slot
  // n + j of vm_next_ is server j's head, so the first member's prev is
  // that slot and an empty server's tail points at it: linking a VM never
  // branches on an empty list.  Attach links at the tail, so a fresh
  // rebuild lists members in ascending VM order.
  std::vector<std::uint32_t> server_tail_;   // m: last member or head slot
  std::vector<std::uint32_t> server_count_;  // m
  std::vector<std::uint32_t> vm_next_;       // n + m, kNoVm-terminated
  std::vector<std::uint32_t> vm_prev_;       // n

  // Per-server cost accumulators, striped into one contiguous buffer:
  // [0, m) = Eq. 22 usage terms, [m, 2m) = Eq. 23 downtime terms.
  std::vector<double> server_cost_;
  std::vector<std::uint32_t> overload_count_;  // exceeded attrs per server
  // Bit j of word j / 64 is set exactly when overload_count_[j] > 0; the
  // rebuild sets it and refresh_server keeps it current.
  std::vector<std::uint64_t> overload_bits_;

  double total_usage_ = 0.0;
  double total_downtime_ = 0.0;
  double total_migration_ = 0.0;

  std::vector<std::uint8_t> relation_ok_;  // per-constraint satisfied flag
  std::uint32_t capacity_violations_ = 0;
  std::uint32_t relation_violations_ = 0;

  struct Move {
    std::size_t vm = 0;
    std::int32_t target = 0;
  };
  std::vector<Move> undo_;  // target = the server to move back to

  std::vector<double> scratch_row_;  // h-sized hypothetical used row

  // The rebase scratch: epoch-stamped dedup marks + touched lists, reused
  // across calls (no allocation once warmed).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> server_epoch_;      // m
  std::vector<std::uint32_t> constraint_epoch_;  // #constraints
  std::vector<std::uint32_t> touched_servers_;
  std::vector<std::uint32_t> touched_constraints_;
};

}  // namespace iaas
