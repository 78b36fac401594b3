// Delta-evaluation engine (PlacementState): every accumulator must agree
// with a from-scratch Evaluator::evaluate after any sequence of moves,
// rejections, and reverts — the invariant DESIGN.md §7 promises.
#include "model/placement_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.h"
#include "model/objectives.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

constexpr double kTol = 1e-9;

// Asserts that the incremental state matches a full rebuild of the same
// placement, objective term by term and violation count by count.
void expect_matches_full(PlacementState& state, Evaluator& evaluator) {
  const Evaluation full = evaluator.evaluate(state.placement());
  const ObjectiveVector incremental = state.objectives();
  EXPECT_NEAR(incremental.usage_cost, full.objectives.usage_cost, kTol);
  EXPECT_NEAR(incremental.downtime_cost, full.objectives.downtime_cost, kTol);
  EXPECT_NEAR(incremental.migration_cost, full.objectives.migration_cost,
              kTol);
  EXPECT_NEAR(state.aggregate(), full.objectives.aggregate(), kTol);
  EXPECT_EQ(state.capacity_violations(), full.violations.capacity_violations);
  EXPECT_EQ(state.relation_violations(), full.violations.relation_violations);
  EXPECT_EQ(state.rejected_count(), full.violations.rejected_vms);
  EXPECT_EQ(state.violation_report().overloaded_servers,
            full.violations.overloaded_servers);
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
  Evaluator evaluator(inst);
  EXPECT_EQ(state.rejected_count(), inst.n());
  EXPECT_DOUBLE_EQ(state.aggregate(), 0.0);
  expect_matches_full(state, evaluator);
}

TEST(PlacementState, RebuildMatchesEvaluator) {
  const Instance inst = constrained_instance(2);
  PlacementState state(inst);
  Evaluator evaluator(inst);
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    state.rebuild(random_genes(inst, rng));
    expect_matches_full(state, evaluator);
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
  Evaluator evaluator(inst);
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
    const Evaluation full = evaluator.evaluate(hypothetical);
    EXPECT_NEAR(delta.objectives.usage_cost, full.objectives.usage_cost,
                kTol);
    EXPECT_NEAR(delta.objectives.downtime_cost,
                full.objectives.downtime_cost, kTol);
    EXPECT_NEAR(delta.objectives.migration_cost,
                full.objectives.migration_cost, kTol);
    EXPECT_NEAR(delta.aggregate_delta,
                full.objectives.aggregate() - state.aggregate(), kTol);
    EXPECT_EQ(static_cast<std::int32_t>(state.total_violations()) +
                  delta.violations_delta,
              static_cast<std::int32_t>(full.violations.total()));
  }
}

TEST(PlacementState, ApplyMoveLandsOnTheScoredDelta) {
  const Instance inst = constrained_instance(5);
  PlacementState state(inst);
  Evaluator evaluator(inst);
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
  expect_matches_full(state, evaluator);
}

TEST(PlacementState, RevertRestoresEverything) {
  const Instance inst = constrained_instance(6);
  PlacementState state(inst);
  Evaluator evaluator(inst);
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
  expect_matches_full(state, evaluator);
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
    EXPECT_EQ(lean.rejected_count(), full.rejected_count());
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
  Evaluator evaluator(inst);
  Rng rng(37);
  const std::vector<std::int32_t> genes = random_genes(inst, rng);
  shared_a.rebuild(genes);
  shared_b.rebuild(genes);
  private_state.rebuild(genes);
  expect_matches_full(shared_a, evaluator);
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
  EXPECT_EQ(total_members, inst.n() - state.rejected_count());
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
  Evaluator evaluator(inst, {}, tables);
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
    expect_matches_full(state, evaluator);
    EXPECT_EQ(lean.capacity_violations(), state.capacity_violations());
    EXPECT_EQ(lean.relation_violations(), state.relation_violations());
    EXPECT_EQ(lean.rejected_count(), state.rejected_count());
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
  Evaluator evaluator(inst);
  Rng rng(GetParam() * 7919 + 1);
  state.rebuild(random_genes(inst, rng));
  expect_matches_full(state, evaluator);

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
    expect_matches_full(state, evaluator);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence at step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacementStateProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace iaas
