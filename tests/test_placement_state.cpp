// Delta-evaluation engine (PlacementState): every accumulator must agree
// with a from-scratch rebuild of a fresh state after any sequence of
// moves, rejections, and reverts — the invariant DESIGN.md §7 promises.
#include "model/placement_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "model/load_model.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

constexpr double kTol = 1e-9;

// Asserts that the incremental state matches a full rebuild of the same
// placement in a fresh state, objective term by term and violation count
// by count.
void expect_matches_full(const PlacementState& state) {
  PlacementState fresh(state.instance(), state.options(),
                       StateTracking::kFull, state.tables());
  fresh.rebuild(state.placement());
  const ObjectiveVector incremental = state.objectives();
  const ObjectiveVector full = fresh.objectives();
  EXPECT_NEAR(incremental.usage_cost, full.usage_cost, kTol);
  EXPECT_NEAR(incremental.downtime_cost, full.downtime_cost, kTol);
  EXPECT_NEAR(incremental.migration_cost, full.migration_cost, kTol);
  EXPECT_NEAR(state.aggregate(), full.aggregate(), kTol);
  EXPECT_EQ(state.capacity_violations(), fresh.capacity_violations());
  EXPECT_EQ(state.relation_violations(), fresh.relation_violations());
  EXPECT_EQ(state.placement().rejected_count(),
            fresh.placement().rejected_count());
  for (std::size_t j = 0; j < state.instance().m(); ++j) {
    EXPECT_EQ(state.server_overloaded(j), fresh.server_overloaded(j))
        << "server " << j;
  }
}

Instance constrained_instance(std::uint64_t seed) {
  ScenarioConfig cfg = ScenarioConfig::paper_scale(16);
  cfg.vms = 48;
  cfg.constrained_fraction = 0.5;   // plenty of relationship groups
  cfg.preplaced_fraction = 0.5;     // exercise the migration term
  return ScenarioGenerator(cfg).generate(seed);
}

std::vector<std::int32_t> random_genes(const Instance& inst, Rng& rng) {
  std::vector<std::int32_t> genes(inst.n());
  for (auto& g : genes) {
    // ~10% rejected so the rejection bookkeeping is exercised too.
    g = rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
  }
  return genes;
}

TEST(PlacementState, FreshStateIsEmptyAndConsistent) {
  const Instance inst = constrained_instance(1);
  PlacementState state(inst);
  EXPECT_EQ(state.placement().rejected_count(), inst.n());
  EXPECT_DOUBLE_EQ(state.aggregate(), 0.0);
  expect_matches_full(state);
}

TEST(PlacementState, RebuildMatchesFreshState) {
  const Instance inst = constrained_instance(2);
  PlacementState state(inst);
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    state.rebuild(random_genes(inst, rng));
    expect_matches_full(state);
  }
}

TEST(PlacementState, TryMoveLeavesStateUntouched) {
  const Instance inst = constrained_instance(3);
  PlacementState state(inst);
  Rng rng(11);
  state.rebuild(random_genes(inst, rng));
  const ObjectiveVector before = state.objectives();
  const Placement snapshot = state.placement();
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t k = rng.uniform_index(inst.n());
    const auto target =
        static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    (void)state.try_move(k, target);
  }
  EXPECT_EQ(state.placement(), snapshot);
  EXPECT_DOUBLE_EQ(state.objectives().aggregate(), before.aggregate());
}

TEST(PlacementState, TryMovePredictsFullEvaluation) {
  const Instance inst = constrained_instance(4);
  PlacementState state(inst);
  PlacementState full(inst);
  Rng rng(13);
  state.rebuild(random_genes(inst, rng));

  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t k = rng.uniform_index(inst.n());
    const std::int32_t target =
        rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    const ObjectiveDelta delta = state.try_move(k, target);

    Placement hypothetical = state.placement();
    hypothetical.assign(k, target);
    full.rebuild(hypothetical);
    EXPECT_NEAR(delta.objectives.usage_cost, full.objectives().usage_cost,
                kTol);
    EXPECT_NEAR(delta.objectives.downtime_cost,
                full.objectives().downtime_cost, kTol);
    EXPECT_NEAR(delta.objectives.migration_cost,
                full.objectives().migration_cost, kTol);
    EXPECT_NEAR(delta.aggregate_delta, full.aggregate() - state.aggregate(),
                kTol);
    EXPECT_EQ(static_cast<std::int32_t>(state.total_violations()) +
                  delta.violations_delta,
              static_cast<std::int32_t>(full.total_violations()));
  }
}

TEST(PlacementState, ApplyMoveLandsOnTheScoredDelta) {
  const Instance inst = constrained_instance(5);
  PlacementState state(inst);
  Rng rng(17);
  state.rebuild(random_genes(inst, rng));

  const std::size_t k = 0;
  const std::int32_t target =
      (state.placement().server_of(k) + 1) %
      static_cast<std::int32_t>(inst.m());
  const ObjectiveDelta delta = state.try_move(k, target);
  state.apply_move(k, target);
  EXPECT_EQ(state.placement().server_of(k), target);
  EXPECT_NEAR(state.aggregate(), delta.objectives.aggregate(), kTol);
  expect_matches_full(state);
}

TEST(PlacementState, RevertRestoresEverything) {
  const Instance inst = constrained_instance(6);
  PlacementState state(inst);
  Rng rng(19);
  state.rebuild(random_genes(inst, rng));
  const Placement original = state.placement();
  const double original_aggregate = state.aggregate();

  Rng move_rng(23);
  for (int i = 0; i < 50; ++i) {
    const std::size_t k = move_rng.uniform_index(inst.n());
    const std::int32_t target =
        move_rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(move_rng.uniform_index(inst.m()));
    state.apply_move(k, target);
  }
  while (state.applied_moves() > 0) {
    state.revert();
  }
  EXPECT_EQ(state.placement(), original);
  EXPECT_NEAR(state.aggregate(), original_aggregate, kTol);
  expect_matches_full(state);
}

TEST(PlacementState, RelationViolationsTrackMoves) {
  // Two VMs bound to the same server, placed apart then together.
  PlacementConstraint c;
  c.kind = RelationKind::kSameServer;
  c.vms = {0, 1};
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}}, {c});
  PlacementState state(inst);
  state.rebuild(std::vector<std::int32_t>{0, 1});
  EXPECT_EQ(state.relation_violations(), 1u);

  const ObjectiveDelta fix = state.try_move(1, 0);
  EXPECT_EQ(fix.violations_delta, -1);
  state.apply_move(1, 0);
  EXPECT_EQ(state.relation_violations(), 0u);
  state.revert();
  EXPECT_EQ(state.relation_violations(), 1u);
}

TEST(PlacementState, CapacityViolationsTrackMoves) {
  // One server of capacity 10 receiving 2 x 6 demand.
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{6.0, 6.0, 6.0}, {6.0, 6.0, 6.0}});
  PlacementState state(inst);
  state.rebuild(std::vector<std::int32_t>{0, 1});
  EXPECT_EQ(state.capacity_violations(), 0u);
  EXPECT_FALSE(state.server_overloaded(0));

  const ObjectiveDelta crowd = state.try_move(1, 0);
  EXPECT_EQ(crowd.violations_delta, 3);  // all three attributes exceed
  state.apply_move(1, 0);
  EXPECT_TRUE(state.server_overloaded(0));
  EXPECT_EQ(state.capacity_violations(), 3u);
  state.revert();
  EXPECT_EQ(state.capacity_violations(), 0u);
}

// The full-scan isValidAllocation the state's predicate replaced: demand
// summed from scratch, and every constraint of the instance searched for
// VM k.
bool full_scan_is_valid(const Instance& inst, const Placement& placement,
                        std::size_t k, std::size_t j) {
  Matrix<double> used(inst.m(), inst.h());
  for (std::size_t v = 0; v < inst.n(); ++v) {
    if (placement.is_assigned(v)) {
      const auto s = static_cast<std::size_t>(placement.server_of(v));
      for (std::size_t l = 0; l < inst.h(); ++l) {
        used(s, l) += inst.requests.vms[v].demand[l];
      }
    }
  }
  const Server& server = inst.infra.server(j);
  const bool already_there =
      placement.is_assigned(k) &&
      static_cast<std::size_t>(placement.server_of(k)) == j;
  for (std::size_t l = 0; l < inst.h(); ++l) {
    const double add = already_there ? 0.0 : inst.requests.vms[k].demand[l];
    if (used(j, l) + add > server.effective_capacity(l) + kCapacityEps) {
      return false;
    }
  }
  const std::uint32_t dc_j = inst.infra.datacenter_of(j);
  for (const PlacementConstraint& c : inst.requests.constraints) {
    if (std::find(c.vms.begin(), c.vms.end(),
                  static_cast<std::uint32_t>(k)) == c.vms.end()) {
      continue;
    }
    for (std::uint32_t peer : c.vms) {
      if (peer == k || !placement.is_assigned(peer)) {
        continue;
      }
      const auto peer_server =
          static_cast<std::size_t>(placement.server_of(peer));
      const std::uint32_t peer_dc = inst.infra.datacenter_of(peer_server);
      switch (c.kind) {
        case RelationKind::kSameServer:
          if (peer_server != j) {
            return false;
          }
          break;
        case RelationKind::kSameDatacenter:
          if (peer_dc != dc_j) {
            return false;
          }
          break;
        case RelationKind::kDifferentServers:
          if (peer_server == j) {
            return false;
          }
          break;
        case RelationKind::kDifferentDatacenters:
          if (peer_dc == dc_j) {
            return false;
          }
          break;
      }
    }
  }
  return true;
}

// Property: along a random apply/revert walk (rejections included), the
// state's isValidAllocation agrees with the full scan on random (k, j)
// and on k's own host, and every relation flag agrees with the checker.
class ValidityProperty : public ::testing::TestWithParam<StateTracking> {};

TEST_P(ValidityProperty, PredicateMatchesFullScanAlongAWalk) {
  std::set<RelationKind> kinds;
  std::size_t valid = 0;
  std::size_t invalid = 0;
  for (const std::uint64_t seed : {8u, 9u, 10u, 11u}) {
    const Instance inst = constrained_instance(seed);
    const auto& constraints = inst.requests.constraints;
    for (const PlacementConstraint& c : constraints) {
      kinds.insert(c.kind);
    }
    const ConstraintChecker checker(inst);
    PlacementState state(inst, {}, GetParam());
    Rng rng(seed * 29);
    state.rebuild(random_genes(inst, rng));

    for (int step = 0; step < 300; ++step) {
      const std::size_t k = rng.uniform_index(inst.n());
      std::vector<std::size_t> probes = {rng.uniform_index(inst.m())};
      if (state.placement().is_assigned(k)) {
        probes.push_back(
            static_cast<std::size_t>(state.placement().server_of(k)));
      }
      for (const std::size_t j : probes) {
        const bool expected = full_scan_is_valid(inst, state.placement(), k, j);
        EXPECT_EQ(state.is_valid_allocation(k, j), expected)
            << "seed " << seed << " step " << step << " vm " << k
            << " server " << j;
        ++(expected ? valid : invalid);
      }

      if (state.applied_moves() > 0 && rng.bernoulli(0.25)) {
        state.revert();
      } else {
        const std::int32_t target =
            rng.bernoulli(0.1)
                ? Placement::kRejected
                : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
        state.apply_move(rng.uniform_index(inst.n()), target);
      }
      for (std::size_t c = 0; c < constraints.size(); ++c) {
        ASSERT_EQ(state.relation_satisfied(c),
                  checker.relation_satisfied(constraints[c],
                                             state.placement()))
            << "seed " << seed << " step " << step << " constraint " << c;
      }
    }
  }
  // The seeds hold all four relation kinds, and both outcomes occur.
  EXPECT_EQ(kinds.size(), 4u);
  EXPECT_GT(valid, 0u);
  EXPECT_GT(invalid, 0u);
}

INSTANTIATE_TEST_SUITE_P(Tracking, ValidityProperty,
                         ::testing::Values(StateTracking::kFull,
                                           StateTracking::kViolationsOnly));

TEST(PlacementState, ViolationsOnlyModeTracksViolationsExactly) {
  // The repair operators run the state in kViolationsOnly mode; its
  // violation counters, used matrix, and VM lists must stay identical to
  // the full-tracking state through any move sequence.
  const Instance inst = constrained_instance(9);
  PlacementState full(inst);
  PlacementState lean(inst, {}, StateTracking::kViolationsOnly);
  Rng rng(31);
  const std::vector<std::int32_t> genes = random_genes(inst, rng);
  full.rebuild(genes);
  lean.rebuild(genes);

  for (int step = 0; step < 200; ++step) {
    const std::size_t k = rng.uniform_index(inst.n());
    const std::int32_t target =
        rng.bernoulli(0.1)
            ? Placement::kRejected
            : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    const ObjectiveDelta lean_delta = lean.try_move(k, target);
    const ObjectiveDelta full_delta = full.try_move(k, target);
    EXPECT_EQ(lean_delta.violations_delta, full_delta.violations_delta);
    full.apply_move(k, target);
    lean.apply_move(k, target);
    EXPECT_EQ(lean.capacity_violations(), full.capacity_violations());
    EXPECT_EQ(lean.relation_violations(), full.relation_violations());
    EXPECT_EQ(lean.placement(), full.placement());
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at step " << step;
    }
  }
  for (std::size_t j = 0; j < inst.m(); ++j) {
    EXPECT_EQ(lean.server_overloaded(j), full.server_overloaded(j));
  }
}

TEST(PlacementState, SharedTablesMatchPrivateTables) {
  // Several states over one immutable StateTables must behave exactly
  // like states that flattened the instance themselves.
  const Instance inst = constrained_instance(10);
  const auto tables = std::make_shared<const StateTables>(inst);
  PlacementState shared_a(inst, {}, StateTracking::kFull, tables);
  PlacementState shared_b(inst, {}, StateTracking::kViolationsOnly, tables);
  PlacementState private_state(inst);
  Rng rng(37);
  const std::vector<std::int32_t> genes = random_genes(inst, rng);
  shared_a.rebuild(genes);
  shared_b.rebuild(genes);
  private_state.rebuild(genes);
  expect_matches_full(shared_a);
  EXPECT_NEAR(shared_a.aggregate(), private_state.aggregate(), kTol);
  EXPECT_EQ(shared_b.capacity_violations(),
            private_state.capacity_violations());
  EXPECT_EQ(shared_b.relation_violations(),
            private_state.relation_violations());
  EXPECT_EQ(shared_a.tables().get(), tables.get());
}

TEST(PlacementState, MembershipListsMirrorThePlacement) {
  // vms_on(j) must enumerate exactly the VMs the placement maps to j;
  // a fresh rebuild lists them in ascending VM order (tail insertion).
  const Instance inst = constrained_instance(11);
  PlacementState state(inst);
  Rng rng(41);
  state.rebuild(random_genes(inst, rng));

  std::size_t total_members = 0;
  for (std::size_t j = 0; j < inst.m(); ++j) {
    std::vector<std::uint32_t> members(state.vms_on(j).begin(),
                                       state.vms_on(j).end());
    EXPECT_EQ(members.size(), state.vm_count_on(j));
    EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
    for (const std::uint32_t k : members) {
      EXPECT_EQ(state.placement().server_of(k),
                static_cast<std::int32_t>(j));
    }
    total_members += members.size();
  }
  EXPECT_EQ(total_members, inst.n() - state.placement().rejected_count());
}

// Rebase property: after any mix of moves, a gene-diff rebase must leave
// the state indistinguishable from a from-scratch rebuild of the target
// genes — across small diffs (delta path), large diffs (threshold
// fallback to rebuild), and the zero-diff fast path.
class RebaseProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RebaseProperty, RebaseAgreesWithFullEvaluation) {
  const Instance inst = constrained_instance(GetParam() + 20);
  const auto tables = std::make_shared<const StateTables>(inst);
  PlacementState state(inst, {}, StateTracking::kFull, tables);
  PlacementState lean(inst, {}, StateTracking::kViolationsOnly, tables);
  Rng rng(GetParam() * 104729 + 3);

  std::vector<std::int32_t> genes = random_genes(inst, rng);
  state.rebuild(genes);
  lean.rebuild(genes);

  for (int round = 0; round < 30; ++round) {
    // Drift the live states with interleaved applies and reverts so the
    // rebase starts from a placement with history, not a fresh rebuild.
    for (int step = 0; step < 20; ++step) {
      if (state.applied_moves() > 0 && rng.bernoulli(0.3)) {
        state.revert();
        lean.revert();
      } else {
        const std::size_t k = rng.uniform_index(inst.n());
        const std::int32_t target =
            rng.bernoulli(0.1)
                ? Placement::kRejected
                : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
        state.apply_move(k, target);
        lean.apply_move(k, target);
      }
    }

    // Perturbation size sweeps the spectrum: the small end exercises the
    // touched-server delta path, the large end the rebuild fallback.
    genes = state.placement().genes();
    const std::size_t flips =
        round % 3 == 2 ? inst.n() : 1 + rng.uniform_index(inst.n() / 4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t k = rng.uniform_index(inst.n());
      genes[k] = rng.bernoulli(0.1)
                     ? Placement::kRejected
                     : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    }

    const std::size_t diff_full = state.rebase(genes);
    const std::size_t diff_lean = lean.rebase(genes);
    EXPECT_EQ(diff_full, diff_lean);
    EXPECT_LE(diff_full, flips);
    EXPECT_EQ(state.placement().genes(), genes);
    EXPECT_EQ(lean.placement(), state.placement());
    EXPECT_EQ(state.applied_moves(), 0u);  // rebase clears the undo log
    expect_matches_full(state);
    EXPECT_EQ(lean.capacity_violations(), state.capacity_violations());
    EXPECT_EQ(lean.relation_violations(), state.relation_violations());
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at round " << round;
    }
  }

  // Zero-diff rebase is a no-op that reports zero changes.
  const double aggregate_before = state.aggregate();
  EXPECT_EQ(state.rebase(state.placement().genes()), 0u);
  EXPECT_DOUBLE_EQ(state.aggregate(), aggregate_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RebaseProperty,
                         ::testing::Values(1u, 2u, 3u, 4u));

// The headline property: hundreds of interleaved applies and reverts,
// cross-checked against a full rebuild at every step.
class PlacementStateProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PlacementStateProperty, DeltaAgreesWithFullAtEveryStep) {
  const Instance inst = constrained_instance(GetParam());
  PlacementState state(inst);
  Rng rng(GetParam() * 7919 + 1);
  state.rebuild(random_genes(inst, rng));
  expect_matches_full(state);

  for (int step = 0; step < 300; ++step) {
    if (state.applied_moves() > 0 && rng.bernoulli(0.25)) {
      state.revert();
    } else {
      const std::size_t k = rng.uniform_index(inst.n());
      const std::int32_t target =
          rng.bernoulli(0.1)
              ? Placement::kRejected
              : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
      const ObjectiveDelta delta = state.try_move(k, target);
      const std::int32_t predicted =
          static_cast<std::int32_t>(state.total_violations()) +
          delta.violations_delta;
      state.apply_move(k, target);
      EXPECT_NEAR(state.aggregate(), delta.objectives.aggregate(), kTol);
      EXPECT_EQ(static_cast<std::int32_t>(state.total_violations()),
                predicted);
    }
    expect_matches_full(state);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementStateProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- Differential reference for the rebuild passes ---------------------
//
// The per-VM attach and per-server refresh loop that the flat rebuild
// passes replaced, with the per-candidate edit that try_move scored
// through, written over the AoS Server/VmRequest records and plain
// per-server member vectors.  It walks every member for downtime (no
// highest-guarantee skip) and applies Eq. 24 with the knee clamped on
// every call, as the replaced code did.  Every sum runs in the replaced
// code's order, so its doubles must equal the state's bit for bit.
class ReferenceState {
 public:
  ReferenceState(const Instance& inst, ObjectiveOptions options,
                 StateTracking tracking)
      : inst_(inst),
        options_(options),
        full_(tracking == StateTracking::kFull),
        checker_(inst),
        placement_(inst.n()),
        used_(inst.m(), inst.h()),
        members_(inst.m()),
        usage_acc_(inst.m(), 0.0),
        downtime_acc_(inst.m(), 0.0),
        overloads_(inst.m(), 0),
        hot_(inst.m(), 0),
        relation_ok_(inst.requests.constraints.size(), 1),
        constraints_of_(inst.n()) {
    const auto& constraints = inst.requests.constraints;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      for (const std::uint32_t k : constraints[c].vms) {
        constraints_of_[k].push_back(c);
      }
    }
  }

  void rebuild(const std::vector<std::int32_t>& genes) {
    placement_ = Placement(genes);
    used_.fill(0.0);
    for (auto& list : members_) {
      list.clear();
    }
    rejected_ = 0;
    total_migration_ = 0.0;
    for (std::size_t k = 0; k < inst_.n(); ++k) {
      if (!placement_.is_assigned(k)) {
        ++rejected_;
        continue;
      }
      attach(k, static_cast<std::size_t>(placement_.server_of(k)));
      if (full_) {
        total_migration_ += migration_of(k, placement_.server_of(k));
      }
    }
    total_usage_ = 0.0;
    total_downtime_ = 0.0;
    capacity_violations_ = 0;
    std::fill(usage_acc_.begin(), usage_acc_.end(), 0.0);
    std::fill(downtime_acc_.begin(), downtime_acc_.end(), 0.0);
    std::fill(overloads_.begin(), overloads_.end(), 0u);
    for (std::size_t j = 0; j < inst_.m(); ++j) {
      refresh(j);
    }
    relation_violations_ = 0;
    const auto& constraints = inst_.requests.constraints;
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      const bool ok = checker_.relation_satisfied(constraints[c], placement_);
      relation_ok_[c] = ok ? 1 : 0;
      relation_violations_ += ok ? 0u : 1u;
    }
  }

  ObjectiveDelta try_move(std::size_t k, std::int32_t target) {
    const std::int32_t from = placement_.server_of(k);
    ObjectiveDelta delta;
    delta.objectives = objectives();
    if (from == target) {
      return delta;
    }
    const std::vector<double>& demand = inst_.requests.vms[k].demand;
    double usage_delta = 0.0;
    double downtime_delta = 0.0;
    double migration_delta = 0.0;
    std::int32_t capacity_delta = 0;
    for (const std::int32_t side : {from, target}) {
      if (side < 0) {
        continue;
      }
      const auto j = static_cast<std::size_t>(side);
      const bool joining = side == target;
      std::vector<double> row(inst_.h());
      for (std::size_t l = 0; l < inst_.h(); ++l) {
        row[l] = joining ? used_(j, l) + demand[l] : used_(j, l) - demand[l];
      }
      const Edit edit = this->edit(j, k, joining, row);
      if (full_) {
        usage_delta += edit.usage - usage_acc_[j];
        downtime_delta += edit.downtime - downtime_acc_[j];
      }
      capacity_delta += static_cast<std::int32_t>(edit.overloads) -
                        static_cast<std::int32_t>(overloads_[j]);
    }
    if (full_) {
      migration_delta = migration_of(k, target) - migration_of(k, from);
    }
    std::int32_t relation_delta = 0;
    placement_.assign(k, target);
    for (const std::size_t c : constraints_of_[k]) {
      const bool ok = checker_.relation_satisfied(inst_.requests.constraints[c],
                                                  placement_);
      relation_delta += (ok ? 0 : 1) - (relation_ok_[c] != 0 ? 0 : 1);
    }
    placement_.assign(k, from);
    delta.objectives.usage_cost += usage_delta;
    delta.objectives.downtime_cost += downtime_delta;
    delta.objectives.migration_cost += migration_delta;
    delta.aggregate_delta = usage_delta + downtime_delta + migration_delta;
    delta.violations_delta = capacity_delta + relation_delta;
    return delta;
  }

  void apply_move(std::size_t k, std::int32_t target) {
    const std::int32_t from = placement_.server_of(k);
    if (from == target) {
      return;
    }
    if (full_) {
      total_migration_ += migration_of(k, target) - migration_of(k, from);
    }
    if (from >= 0) {
      detach(k, static_cast<std::size_t>(from));
    } else {
      --rejected_;
    }
    placement_.assign(k, target);
    if (target >= 0) {
      attach(k, static_cast<std::size_t>(target));
    } else {
      ++rejected_;
    }
    if (from >= 0) {
      refresh(static_cast<std::size_t>(from));
    }
    if (target >= 0) {
      refresh(static_cast<std::size_t>(target));
    }
    for (const std::size_t c : constraints_of_[k]) {
      const bool ok = checker_.relation_satisfied(inst_.requests.constraints[c],
                                                  placement_);
      relation_violations_ += ok ? 0u : 1u;
      relation_violations_ -= relation_ok_[c] != 0 ? 0u : 1u;
      relation_ok_[c] = ok ? 1 : 0;
    }
  }

  [[nodiscard]] ObjectiveVector objectives() const {
    return {total_usage_, total_downtime_, total_migration_};
  }
  [[nodiscard]] ViolationReport report() const {
    ViolationReport out;
    out.capacity_violations = capacity_violations_;
    out.relation_violations = relation_violations_;
    out.rejected_vms = static_cast<std::uint32_t>(rejected_);
    return out;
  }
  [[nodiscard]] bool overloaded(std::size_t j) const {
    return overloads_[j] > 0;
  }
  // True when some cell of server j has its load past its knee.
  [[nodiscard]] bool hot(std::size_t j) const { return hot_[j] != 0; }
  [[nodiscard]] const std::vector<std::uint32_t>& members(
      std::size_t j) const {
    return members_[j];
  }
  [[nodiscard]] bool relation_ok(std::size_t c) const {
    return relation_ok_[c] != 0;
  }

 private:
  struct Edit {
    double usage = 0.0;
    double downtime = 0.0;
    std::uint32_t overloads = 0;
  };

  // The knee as the replaced inline qos_at_load clamped it.
  static double knee_of(double max_load) {
    constexpr double kKneeCeiling = 1.0 - 1e-9;
    if (!(max_load >= 0.0)) {
      return 0.0;
    }
    return max_load > kKneeCeiling ? kKneeCeiling : max_load;
  }
  // Eq. 24 exactly as the replaced inline qos_at_load computed it.
  static double qos_at_load(double load, double max_load, double max_qos) {
    const double knee = knee_of(max_load);
    if (load <= knee) {
      return max_qos;
    }
    return max_qos * std::exp((knee - load) / (1.0 - knee));
  }

  void attach(std::size_t k, std::size_t j) {
    members_[j].push_back(static_cast<std::uint32_t>(k));
    for (std::size_t l = 0; l < inst_.h(); ++l) {
      used_(j, l) += inst_.requests.vms[k].demand[l];
    }
  }
  void detach(std::size_t k, std::size_t j) {
    auto& list = members_[j];
    list.erase(std::find(list.begin(), list.end(), k));
    for (std::size_t l = 0; l < inst_.h(); ++l) {
      used_(j, l) -= inst_.requests.vms[k].demand[l];
    }
  }

  double migration_of(std::size_t k, std::int32_t server) const {
    if (server < 0 || !inst_.previous.is_assigned(k) ||
        inst_.previous.server_of(k) == server) {
      return 0.0;
    }
    double weight = 1.0;
    if (options_.topology_migration_weight) {
      weight = static_cast<double>(inst_.infra.fabric().hop_distance(
                   static_cast<std::uint32_t>(inst_.previous.server_of(k)),
                   static_cast<std::uint32_t>(server))) /
               6.0;
    }
    return inst_.requests.vms[k].migration_cost * weight;
  }
  double usage_of(std::size_t j, std::size_t count) const {
    if (count == 0) {
      return 0.0;
    }
    const Server& server = inst_.infra.server(j);
    const double n = static_cast<double>(count);
    double usage = n * server.usage_cost;
    usage += options_.opex_per_vm ? n * server.opex : server.opex;
    return usage;
  }
  double penalty(std::size_t k, double worst_qos) const {
    const VmRequest& vm = inst_.requests.vms[k];
    if (worst_qos >= vm.qos_guarantee) {
      return 0.0;
    }
    return vm.downtime_cost * (1.0 - worst_qos / vm.qos_guarantee);
  }

  void refresh(std::size_t j) {
    const Server& server = inst_.infra.server(j);
    std::uint32_t overloads = 0;
    double worst = 1.0;
    hot_[j] = 0;
    for (std::size_t l = 0; l < inst_.h(); ++l) {
      overloads += used_(j, l) > server.effective_capacity(l) + kCapacityEps
                       ? 1u
                       : 0u;
      const double load = used_(j, l) / server.capacity[l];
      worst = std::min(
          worst, qos_at_load(load, server.max_load[l], server.max_qos[l]));
      hot_[j] |= !(load <= knee_of(server.max_load[l])) ? 1 : 0;
    }
    capacity_violations_ = capacity_violations_ - overloads_[j] + overloads;
    overloads_[j] = overloads;
    if (!full_) {
      return;
    }
    double downtime = 0.0;
    for (const std::uint32_t k : members_[j]) {
      downtime += penalty(k, worst);
    }
    const double usage = usage_of(j, members_[j].size());
    total_usage_ += usage - usage_acc_[j];
    total_downtime_ += downtime - downtime_acc_[j];
    usage_acc_[j] = usage;
    downtime_acc_[j] = downtime;
  }

  Edit edit(std::size_t j, std::size_t k, bool joining,
            const std::vector<double>& row) const {
    const Server& server = inst_.infra.server(j);
    Edit out;
    double worst = 1.0;
    for (std::size_t l = 0; l < inst_.h(); ++l) {
      worst = std::min(worst, qos_at_load(row[l] / server.capacity[l],
                                          server.max_load[l],
                                          server.max_qos[l]));
      out.overloads +=
          row[l] > server.effective_capacity(l) + kCapacityEps ? 1u : 0u;
    }
    std::size_t count = members_[j].size();
    if (joining) {
      out.downtime += penalty(k, worst);
      ++count;
    } else {
      --count;
    }
    for (const std::uint32_t member : members_[j]) {
      if (!joining && member == k) {
        continue;
      }
      out.downtime += penalty(member, worst);
    }
    out.usage = usage_of(j, count);
    return out;
  }

  const Instance& inst_;
  ObjectiveOptions options_;
  bool full_;
  ConstraintChecker checker_;
  Placement placement_;
  Matrix<double> used_;
  std::vector<std::vector<std::uint32_t>> members_;
  std::vector<double> usage_acc_;
  std::vector<double> downtime_acc_;
  std::vector<std::uint32_t> overloads_;
  std::vector<std::uint8_t> hot_;
  std::vector<std::uint8_t> relation_ok_;
  std::vector<std::vector<std::size_t>> constraints_of_;
  double total_usage_ = 0.0;
  double total_downtime_ = 0.0;
  double total_migration_ = 0.0;
  std::uint32_t capacity_violations_ = 0;
  std::uint32_t relation_violations_ = 0;
  std::size_t rejected_ = 0;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const ObjectiveVector& a, const ObjectiveVector& b) {
  return same_bits(a.usage_cost, b.usage_cost) &&
         same_bits(a.downtime_cost, b.downtime_cost) &&
         same_bits(a.migration_cost, b.migration_cost);
}

// Asserts that the state and the reference agree bit for bit on every
// observable.
void expect_same_as_reference(const PlacementState& state,
                              const ReferenceState& ref,
                              const std::string& where) {
  EXPECT_TRUE(same_bits(state.objectives(), ref.objectives())) << where;
  const ViolationReport want = ref.report();
  EXPECT_EQ(state.capacity_violations(), want.capacity_violations) << where;
  EXPECT_EQ(state.relation_violations(), want.relation_violations) << where;
  EXPECT_EQ(state.placement().rejected_count(), want.rejected_vms) << where;
  for (std::size_t j = 0; j < state.instance().m(); ++j) {
    EXPECT_EQ(state.server_overloaded(j), ref.overloaded(j))
        << where << " server " << j;
    const std::vector<std::uint32_t> members(state.vms_on(j).begin(),
                                             state.vms_on(j).end());
    EXPECT_EQ(members, ref.members(j)) << where << " server " << j;
  }
  for (std::size_t c = 0; c < state.instance().requests.constraints.size();
       ++c) {
    EXPECT_EQ(state.relation_satisfied(c), ref.relation_ok(c))
        << where << " constraint " << c;
  }
}

// A copy of `base` whose server records `edit` has changed (the
// Infrastructure is immutable once built).
Instance with_servers(const Instance& base,
                      const std::function<void(std::vector<Server>&)>& edit) {
  std::vector<Server> servers = base.infra.servers();
  edit(servers);
  Instance out(Infrastructure(base.infra.fabric().config(), std::move(servers)),
               base.requests);
  out.previous = base.previous;
  return out;
}

// The instances the differential runs over: a generated one (whose
// max_qos rows all lie above every guarantee); one whose max_qos rows sit
// at the highest guarantee but for one attribute, rotating with the
// server, midway down the guarantees, so a server below every knee owes
// its members downtime at its row's minimum; one whose
// max_qos rows sit at the highest guarantee or one ulp below it, so a
// server below every knee has a worst QoS exactly at the skip threshold
// (no VM owes downtime) or just under it (the top-guarantee VMs do, by a
// hair); one with NaN knees (clamped to 0: any load is above them) on a
// third of the servers; one with every knee at 0, whose hot thresholds
// are subnormals only the bisection finds; one with every knee one ulp
// under 1, clamped to the ceiling, so only a load past capacity is hot;
// and one with a NaN guarantee, which must keep every downtime walk.
std::vector<std::pair<std::string, Instance>> differential_instances(
    std::uint64_t seed) {
  std::vector<std::pair<std::string, Instance>> out;
  const Instance base = constrained_instance(seed);
  out.emplace_back("generated", base);

  double highest = 0.0;
  double lowest = 1.0;
  for (const VmRequest& vm : base.requests.vms) {
    highest = std::max(highest, vm.qos_guarantee);
    lowest = std::min(lowest, vm.qos_guarantee);
  }
  out.emplace_back("qos-spread",
                   with_servers(base, [&](std::vector<Server>& servers) {
                     for (std::size_t j = 0; j < servers.size(); ++j) {
                       std::vector<double>& max_qos = servers[j].max_qos;
                       max_qos.assign(max_qos.size(), highest);
                       max_qos[j % max_qos.size()] = (lowest + highest) / 2;
                     }
                   }));
  out.emplace_back("qos-at-threshold",
                   with_servers(base, [&](std::vector<Server>& servers) {
                     for (std::size_t j = 0; j < servers.size(); ++j) {
                       servers[j].max_qos.assign(
                           servers[j].max_qos.size(),
                           j % 2 == 0 ? highest
                                      : std::nextafter(highest, 0.0));
                     }
                   }));
  out.emplace_back("nan-knee", with_servers(base, [](std::vector<Server>& servers) {
                     for (std::size_t j = 0; j < servers.size(); j += 3) {
                       servers[j].max_load[j % servers[j].max_load.size()] =
                           std::numeric_limits<double>::quiet_NaN();
                     }
                   }));
  const auto every_knee = [&](double max_load) {
    return with_servers(base, [max_load](std::vector<Server>& servers) {
      for (Server& server : servers) {
        server.max_load.assign(server.max_load.size(), max_load);
      }
    });
  };
  out.emplace_back("zero-knee", every_knee(0.0));
  out.emplace_back("ceiling-knee", every_knee(std::nextafter(1.0, 0.0)));
  Instance nan_guarantee = base;
  // Instance's constructor refuses a NaN guarantee; an edit after it
  // cannot be refused, so the tables must still handle one.
  nan_guarantee.requests.vms[seed % base.n()].qos_guarantee =
      std::numeric_limits<double>::quiet_NaN();
  out.emplace_back("nan-guarantee", std::move(nan_guarantee));
  return out;
}

// Placements for the differential: uniform (about 10% rejected), and
// packed onto the first quarter of the fleet so most servers are empty
// and the rest run past their knees and capacities.
std::vector<std::int32_t> differential_genes(const Instance& inst, Rng& rng,
                                             bool packed) {
  std::vector<std::int32_t> genes = random_genes(inst, rng);
  if (packed) {
    const std::size_t quarter = std::max<std::size_t>(1, inst.m() / 4);
    for (std::int32_t& g : genes) {
      if (g >= 0) {
        g = static_cast<std::int32_t>(rng.uniform_index(quarter));
      }
    }
  }
  return genes;
}

using DifferentialParam = std::tuple<StateTracking, bool, bool>;
class RebuildDifferential
    : public ::testing::TestWithParam<DifferentialParam> {};

TEST_P(RebuildDifferential, MatchesReplacedPassesBitForBit) {
  const auto [tracking, opex_per_vm, topology] = GetParam();
  ObjectiveOptions options;
  options.opex_per_vm = opex_per_vm;
  options.topology_migration_weight = topology;
  std::size_t downtime_positive = 0;
  std::size_t hot_servers = 0;
  std::size_t cold_occupied_servers = 0;
  std::size_t empty_servers = 0;
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    for (const auto& [name, inst] : differential_instances(seed)) {
      PlacementState state(inst, options, tracking);
      ReferenceState ref(inst, options, tracking);
      Rng rng(seed * 977 + name.size());
      for (int round = 0; round < 8; ++round) {
        const std::string where = name + " seed " + std::to_string(seed) +
                                  " round " + std::to_string(round);
        const std::vector<std::int32_t> genes =
            differential_genes(inst, rng, round % 2 == 1);
        state.rebuild(genes);
        ref.rebuild(genes);
        expect_same_as_reference(state, ref, where + " rebuild");

        // Candidate moves from this placement, then a short committed
        // walk: try_move and refresh_server take the same skip.
        for (int step = 0; step < 40; ++step) {
          const std::size_t k = rng.uniform_index(inst.n());
          const std::int32_t target =
              rng.bernoulli(0.1)
                  ? Placement::kRejected
                  : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
          const ObjectiveDelta got = state.try_move(k, target);
          const ObjectiveDelta want = ref.try_move(k, target);
          EXPECT_TRUE(same_bits(got.objectives, want.objectives))
              << where << " try_move " << step;
          EXPECT_TRUE(same_bits(got.aggregate_delta, want.aggregate_delta))
              << where << " try_move " << step;
          EXPECT_EQ(got.violations_delta, want.violations_delta)
              << where << " try_move " << step;
          if (step % 4 == 0) {
            state.apply_move(k, target);
            ref.apply_move(k, target);
            expect_same_as_reference(state, ref,
                                     where + " move " + std::to_string(step));
          }
        }
        if (::testing::Test::HasFailure()) {
          FAIL() << "divergence at " << where;
        }
        downtime_positive += state.objectives().downtime_cost > 0.0 ? 1 : 0;
        for (std::size_t j = 0; j < inst.m(); ++j) {
          if (state.vm_count_on(j) == 0) {
            ++empty_servers;
          } else if (ref.hot(j)) {
            ++hot_servers;
          } else {
            ++cold_occupied_servers;
          }
        }
      }
    }
  }
  // The placements reach the three kinds of server the fleet pass tells
  // apart: hot (Eq. 24 divides), occupied below every knee (the cold row's
  // minimum) and empty (zeroed in bulk, skipped).
  EXPECT_GT(hot_servers, 0u);
  EXPECT_GT(cold_occupied_servers, 0u);
  EXPECT_GT(empty_servers, 0u);
  if (tracking == StateTracking::kFull) {
    EXPECT_GT(downtime_positive, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TrackingAndOptions, RebuildDifferential,
    ::testing::Combine(::testing::Values(StateTracking::kFull,
                                         StateTracking::kViolationsOnly),
                       ::testing::Bool(), ::testing::Bool()));

TEST(StateTables, HighestGuaranteeThreshold) {
  const Instance inst = constrained_instance(12);
  double highest = 0.0;
  for (const VmRequest& vm : inst.requests.vms) {
    highest = std::max(highest, vm.qos_guarantee);
  }
  EXPECT_EQ(StateTables(inst).highest_qos_guarantee, highest);
  Instance edited = inst;
  edited.requests.vms[3].qos_guarantee =
      std::numeric_limits<double>::quiet_NaN();
  // NaN compares false against every worst QoS: no walk is ever skipped.
  EXPECT_TRUE(std::isnan(StateTables(edited).highest_qos_guarantee));
}

// Every cell's hot threshold T is the last double whose quotient by the
// capacity stays at or under the knee: T / cap <= knee, and the next
// double up is past it.  Division is monotone in the numerator, so
// used <= T then says what used / cap <= knee says, for every used.
void expect_knee_thresholds(const Instance& inst, const std::string& where) {
  const StateTables t(inst);
  for (std::size_t j = 0; j < inst.m(); ++j) {
    double cold_worst = 1.0;
    for (std::size_t l = 0; l < inst.h(); ++l) {
      const double cap = inst.infra.server(j).capacity[l];
      const double knee = clamp_knee(inst.infra.server(j).max_load[l]);
      const double threshold = t.hot_threshold(j, l);
      const double above =
          std::nextafter(threshold, std::numeric_limits<double>::infinity());
      EXPECT_LE(threshold / cap, knee)
          << where << " server " << j << " attribute " << l;
      EXPECT_GT(above / cap, knee)
          << where << " server " << j << " attribute " << l;
      EXPECT_EQ(t.overload_threshold(j, l),
                inst.infra.server(j).effective_capacity(l) + kCapacityEps);
      cold_worst = std::min(cold_worst, inst.infra.server(j).max_qos[l]);
    }
    EXPECT_EQ(t.cold_worst_qos[j], cold_worst) << where << " server " << j;
  }
}

TEST(StateTables, KneeThresholdIsTheDivisionBoundary) {
  for (const std::uint64_t seed : {12u, 13u, 14u}) {
    expect_knee_thresholds(constrained_instance(seed),
                           "generated " + std::to_string(seed));
  }
  const Instance base = constrained_instance(15);
  // Capacities from 1e-3 to 1e6, a decade apart, under knees from 0 to
  // the clamp ceiling (1 - 1e-9; a max_load one ulp under 1 clamps to
  // it).  Knees of 1e-310 and 1e-300 make knee * cap subnormal or tiny.
  const double max_loads[] = {
      0.0, 1e-310, 1e-300, 0.3, 0.7, 0.95, 1.0 - 1e-9,
      std::nextafter(1.0, 0.0)};
  for (std::size_t i = 0; i < std::size(max_loads); ++i) {
    const double max_load = max_loads[i];
    const Instance inst =
        with_servers(base, [max_load](std::vector<Server>& servers) {
          for (std::size_t j = 0; j < servers.size(); ++j) {
            for (std::size_t l = 0; l < servers[j].capacity.size(); ++l) {
              servers[j].capacity[l] =
                  1e-3 * std::pow(10.0, static_cast<double>((j + l) % 10));
            }
            servers[j].max_load.assign(servers[j].max_load.size(), max_load);
          }
        });
    expect_knee_thresholds(inst, "max_load #" + std::to_string(i));
  }

  // A zero knee at capacity 1e6 puts T among the subnormals, near
  // 1e6 * 2^-1075, about half a million ulps above 0: past anything a few
  // nextafter steps from knee * cap = 0 reach, so the bisection finds it.
  const Instance zero_knee =
      with_servers(base, [](std::vector<Server>& servers) {
        servers[0].capacity.assign(servers[0].capacity.size(), 1e6);
        servers[0].max_load.assign(servers[0].max_load.size(), 0.0);
      });
  expect_knee_thresholds(zero_knee, "zero knee at 1e6");
  const double threshold = StateTables(zero_knee).hot_threshold(0, 0);
  EXPECT_GT(threshold, 1000.0 * std::numeric_limits<double>::denorm_min());
  EXPECT_LT(threshold, std::numeric_limits<double>::min());
}

// open_servers on three datacenters of four servers: VM 0 is the probe,
// its peers are placed by hand, and every other VM is unconstrained.
class OpenServers : public ::testing::Test {
 protected:
  static Instance instance_with(std::vector<PlacementConstraint> constraints) {
    return make_instance(3, 4, {10.0, 10.0, 10.0},
                         std::vector<std::vector<double>>(6, {1.0, 1.0, 1.0}),
                         std::move(constraints));
  }

  // The range for VM 0 once `peers` sit on `hosts`; also requires that no
  // server outside it is a valid allocation for VM 0.
  static ServerRange range_for(const Instance& inst,
                               const std::vector<std::int32_t>& hosts) {
    PlacementState state(inst, {}, StateTracking::kViolationsOnly);
    std::vector<std::int32_t> genes(inst.n(), Placement::kRejected);
    std::copy(hosts.begin(), hosts.end(), genes.begin() + 1);
    state.rebuild(genes);
    const ServerRange open = state.open_servers(0);
    for (std::size_t j = 0; j < inst.m(); ++j) {
      if (state.is_valid_allocation(0, j)) {
        EXPECT_TRUE(open.contains(j)) << "valid server " << j;
      }
    }
    return open;
  }

  static void expect_range(const ServerRange& open, std::uint32_t first,
                           std::uint32_t last) {
    EXPECT_EQ(open.first, first);
    EXPECT_EQ(open.last, last);
  }
};

TEST_F(OpenServers, NoPeerLeavesEveryServer) {
  // Unconstrained, an unassigned same-server peer, and an anti-affinity
  // peer (which never narrows the range).
  expect_range(range_for(instance_with({}), {3}), 0, 12);
  expect_range(
      range_for(instance_with({{RelationKind::kSameServer, {0, 1}}}), {-1}),
      0, 12);
  expect_range(range_for(instance_with(
                             {{RelationKind::kDifferentServers, {0, 1}},
                              {RelationKind::kDifferentDatacenters, {0, 2}}}),
                         {5, 9}),
               0, 12);
}

TEST_F(OpenServers, SameServerPeerLeavesItsServer) {
  expect_range(
      range_for(instance_with({{RelationKind::kSameServer, {0, 1}}}), {6}),
      6, 7);
}

TEST_F(OpenServers, SameDatacenterPeerLeavesItsDatacenter) {
  expect_range(
      range_for(instance_with({{RelationKind::kSameDatacenter, {1, 0}}}),
                {9}),
      8, 12);
}

TEST_F(OpenServers, PeersOnTwoServersLeaveNone) {
  const ServerRange open = range_for(
      instance_with({{RelationKind::kSameServer, {0, 1, 2}}}), {5, 6});
  EXPECT_TRUE(open.empty());
  // Two peers on one server leave that server.
  expect_range(range_for(instance_with(
                             {{RelationKind::kSameServer, {0, 1, 2}}}),
                         {5, 5}),
               5, 6);
}

TEST_F(OpenServers, PeersInTwoDatacentersLeaveNone) {
  const ServerRange open = range_for(
      instance_with({{RelationKind::kSameDatacenter, {0, 1, 2}}}), {3, 4});
  EXPECT_TRUE(open.empty());
  // Two peers on two servers of one datacenter leave all of it.
  expect_range(range_for(instance_with(
                             {{RelationKind::kSameDatacenter, {0, 1, 2}}}),
                         {4, 7}),
               4, 8);
}

TEST_F(OpenServers, BothKindsIntersect) {
  const Instance inst =
      instance_with({{RelationKind::kSameServer, {0, 1}},
                     {RelationKind::kSameDatacenter, {0, 2}}});
  // Same-server peer on server 6, same-DC peer in datacenter 1: server 6.
  expect_range(range_for(inst, {6, 5}), 6, 7);
  // Same-DC peer in datacenter 0: the two leave nothing.
  EXPECT_TRUE(range_for(inst, {6, 2}).empty());
  // The same-DC peer unassigned: the same-server peer alone decides.
  expect_range(range_for(inst, {10, -1}), 10, 11);
}

// Along random apply/revert walks, rebases and rebuilds, the overload
// bitset names exactly the servers server_overloaded reports, in
// ascending order.
class OverloadBits : public ::testing::TestWithParam<StateTracking> {};

TEST_P(OverloadBits, MatchServerOverloaded) {
  std::size_t overloaded = 0;
  std::size_t fit = 0;
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    // 70 servers (two DCs of 35) span two bitset words; 4 VMs per server
    // overload some.
    ScenarioConfig cfg = ScenarioConfig::paper_scale(70);
    cfg.vms = 280;
    cfg.constrained_fraction = 0.3;
    const Instance inst = ScenarioGenerator(cfg).generate(seed);
    PlacementState state(inst, {}, GetParam());
    Rng rng(seed * 31);
    const auto check = [&](int step) {
      std::vector<std::size_t> expected;
      for (std::size_t j = 0; j < inst.m(); ++j) {
        if (state.server_overloaded(j)) {
          expected.push_back(j);
        }
      }
      std::vector<std::size_t> walked;
      for (std::size_t j = state.next_overloaded(0); j < inst.m();
           j = state.next_overloaded(j + 1)) {
        walked.push_back(j);
      }
      ASSERT_EQ(walked, expected) << "seed " << seed << " step " << step;
      for (std::size_t j = 0; j <= inst.m(); ++j) {
        const auto next =
            std::lower_bound(expected.begin(), expected.end(), j);
        ASSERT_EQ(state.next_overloaded(j),
                  next == expected.end() ? inst.m() : *next);
      }
      overloaded += expected.size();
      fit += inst.m() - expected.size();
    };
    check(-1);
    state.rebuild(random_genes(inst, rng));
    check(0);
    for (int step = 1; step < 400; ++step) {
      if (step % 100 == 0) {
        std::vector<std::int32_t> genes = state.placement().genes();
        for (int flip = 0; flip < 5; ++flip) {
          genes[rng.uniform_index(inst.n())] =
              static_cast<std::int32_t>(rng.uniform_index(inst.m()));
        }
        state.rebase(genes);
      } else if (state.applied_moves() > 0 && rng.bernoulli(0.3)) {
        state.revert();
      } else {
        const std::int32_t target =
            rng.bernoulli(0.1)
                ? Placement::kRejected
                : static_cast<std::int32_t>(rng.uniform_index(inst.m()));
        state.apply_move(rng.uniform_index(inst.n()), target);
      }
      check(step);
    }
  }
  EXPECT_GT(overloaded, 0u);
  EXPECT_GT(fit, 0u);
}

INSTANTIATE_TEST_SUITE_P(Tracking, OverloadBits,
                         ::testing::Values(StateTracking::kFull,
                                           StateTracking::kViolationsOnly));

// On generated instances with groups, every scan that visits only the
// servers open_servers leaves finds the server its full scan finds:
// first_valid_from against the wrapping scan over every server (FFD from
// 0, RoundRobin from its cursor, the generator's preplacement from a
// random start), an ascending scan of the range (BestFit's and the CP
// searches' candidate lists), and the clipped find_nearest against the
// full one (the tabu walk's find_neighbour), over random partial
// placements of every VM.
TEST(OpenServersScan, FirstHitsMatchFullScans) {
  std::size_t narrowed = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  for (const std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    ScenarioConfig cfg = ScenarioConfig::paper_scale(32, 2);
    cfg.vms = 96;
    cfg.constrained_fraction = 0.6;
    const Instance inst = ScenarioGenerator(cfg).generate(seed);
    ASSERT_FALSE(inst.requests.constraints.empty());
    const std::size_t m = inst.m();
    const Fabric& fabric = inst.infra.fabric();
    PlacementState state(inst, {}, StateTracking::kViolationsOnly);
    Rng rng(seed * 13);
    for (int round = 0; round < 20; ++round) {
      std::vector<std::int32_t> genes(inst.n());
      for (auto& g : genes) {
        g = rng.bernoulli(0.3)
                ? Placement::kRejected
                : static_cast<std::int32_t>(rng.uniform_index(m));
      }
      state.rebuild(genes);
      for (std::size_t k = 0; k < inst.n(); ++k) {
        const ServerRange open = state.open_servers(k);
        narrowed += open.first != 0 || open.last != m ? 1 : 0;
        const auto valid = [&](std::size_t j) {
          return state.is_valid_allocation(k, j);
        };
        const auto wrapped_from = [&](std::size_t start) {
          for (std::size_t off = 0; off < m; ++off) {
            if (valid((start + off) % m)) {
              return (start + off) % m;
            }
          }
          return m;
        };
        const std::size_t lowest = wrapped_from(0);
        EXPECT_EQ(state.first_valid_from(k, 0), lowest);
        ++(lowest < m ? hits : misses);
        const std::size_t start = rng.uniform_index(m);
        EXPECT_EQ(state.first_valid_from(k, start), wrapped_from(start));
        std::size_t in_range = m;
        for (std::size_t j = open.first; j < open.last && in_range == m; ++j) {
          in_range = valid(j) ? j : m;
        }
        EXPECT_EQ(in_range, lowest);
        const auto source = static_cast<std::uint32_t>(rng.uniform_index(m));
        const auto pred = [&](std::uint32_t j) { return valid(j); };
        EXPECT_EQ(fabric.find_nearest(source, open.first, open.last, pred),
                  fabric.find_nearest(source, pred));
      }
    }
  }
  EXPECT_GT(narrowed, 0u);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(misses, 0u);
}

}  // namespace
}  // namespace iaas
