// Tabu list and the Fig. 5/6 repair operator.
#include <gtest/gtest.h>

#include <deque>
#include <unordered_set>

#include "common/rng.h"
#include "model/constraint_checker.h"
#include "tabu/repair.h"
#include "tabu/tabu_list.h"
#include "tests/test_util.h"

namespace iaas {
namespace {

using test::make_instance;
using test::make_random_instance;

TEST(TabuList, ForbidsAndExpires) {
  TabuList tabu(2);
  tabu.forbid(1, 10);
  tabu.forbid(2, 20);
  EXPECT_TRUE(tabu.is_tabu(1, 10));
  EXPECT_TRUE(tabu.is_tabu(2, 20));
  EXPECT_FALSE(tabu.is_tabu(1, 20));
  tabu.forbid(3, 30);  // evicts the oldest (1,10)
  EXPECT_FALSE(tabu.is_tabu(1, 10));
  EXPECT_TRUE(tabu.is_tabu(3, 30));
  EXPECT_EQ(tabu.size(), 2u);
}

TEST(TabuList, DuplicateForbidDoesNotGrow) {
  TabuList tabu(4);
  tabu.forbid(1, 1);
  tabu.forbid(1, 1);
  EXPECT_EQ(tabu.size(), 1u);
}

TEST(TabuList, ZeroTenureNeverForbids) {
  TabuList tabu(0);
  tabu.forbid(1, 1);
  EXPECT_FALSE(tabu.is_tabu(1, 1));
  EXPECT_EQ(tabu.size(), 0u);
}

TEST(TabuList, ClearEmpties) {
  TabuList tabu(4);
  tabu.forbid(1, 1);
  tabu.clear();
  EXPECT_FALSE(tabu.is_tabu(1, 1));
  EXPECT_EQ(tabu.size(), 0u);
}

// The hashed set plus FIFO queue the ring buffer replaced, kept as the
// reference for the differential test below.
class ReferenceTabuList {
 public:
  explicit ReferenceTabuList(std::size_t tenure) : tenure_(tenure) {}

  void forbid(std::uint32_t vm, std::int32_t server) {
    if (tenure_ == 0) {
      return;
    }
    const std::uint64_t k = key(vm, server);
    if (entries_.insert(k).second) {
      order_.push_back(k);
      if (order_.size() > tenure_) {
        entries_.erase(order_.front());
        order_.pop_front();
      }
    }
  }
  [[nodiscard]] bool is_tabu(std::uint32_t vm, std::int32_t server) const {
    return entries_.contains(key(vm, server));
  }
  void clear() {
    entries_.clear();
    order_.clear();
  }
  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  static std::uint64_t key(std::uint32_t vm, std::int32_t server) {
    return (static_cast<std::uint64_t>(vm) << 32) |
           static_cast<std::uint32_t>(server);
  }
  std::size_t tenure_;
  std::unordered_set<std::uint64_t> entries_;
  std::deque<std::uint64_t> order_;
};

TEST(TabuList, MatchesSetAndQueueReference) {
  for (std::size_t tenure : {0u, 1u, 2u, 16u}) {
    TabuList tabu(tenure);
    ReferenceTabuList reference(tenure);
    EXPECT_EQ(tabu.tenure(), tenure);
    Rng rng(100 + tenure);
    for (int step = 0; step < 10000; ++step) {
      // A small key domain (6 VMs x servers -1..5) makes repeats, hits
      // and evictions of still-queried keys common.
      const auto vm = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      const auto server = static_cast<std::int32_t>(rng.uniform_int(-1, 5));
      const std::size_t op = rng.uniform_index(100);
      if (op < 45) {
        tabu.forbid(vm, server);
        reference.forbid(vm, server);
      } else if (op < 99) {
        ASSERT_EQ(tabu.is_tabu(vm, server), reference.is_tabu(vm, server))
            << "tenure " << tenure << ", step " << step;
      } else {
        tabu.clear();
        reference.clear();
      }
      ASSERT_EQ(tabu.size(), reference.size())
          << "tenure " << tenure << ", step " << step;
    }
  }
}

TEST(TabuRepair, FixesOverloadedServer) {
  // Both VMs crammed onto server 0 (16 cpu > 10); a neighbour is free.
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{8.0, 2.0, 2.0}, {8.0, 2.0, 2.0}});
  TabuRepair repair(inst);
  Rng rng(1);
  std::vector<std::int32_t> genes = {0, 0};
  const std::uint32_t remaining = repair.repair(genes, rng);
  EXPECT_EQ(remaining, 0u);
  EXPECT_TRUE(
      ConstraintChecker(inst).check(Placement(genes)).feasible());
  // One VM moved, one stayed (the refinement: shed only until it fits).
  EXPECT_NE(genes[0], genes[1]);
}

TEST(TabuRepair, FixesSameServerGroup) {
  const Instance inst = make_instance(
      1, 3, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameServer, {0, 1}}});
  TabuRepair repair(inst);
  Rng rng(2);
  std::vector<std::int32_t> genes = {0, 2};
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes[0], genes[1]);
}

TEST(TabuRepair, FixesDifferentServersGroup) {
  const Instance inst = make_instance(
      1, 4, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentServers, {0, 1, 2}}});
  TabuRepair repair(inst);
  Rng rng(3);
  std::vector<std::int32_t> genes = {1, 1, 1};
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_NE(genes[0], genes[1]);
  EXPECT_NE(genes[1], genes[2]);
  EXPECT_NE(genes[0], genes[2]);
}

TEST(TabuRepair, FixesDifferentDatacentersGroup) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kDifferentDatacenters, {0, 1}}});
  TabuRepair repair(inst);
  Rng rng(4);
  std::vector<std::int32_t> genes = {0, 1};  // both DC 0
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  const auto dc0 = inst.infra.datacenter_of(static_cast<std::size_t>(genes[0]));
  const auto dc1 = inst.infra.datacenter_of(static_cast<std::size_t>(genes[1]));
  EXPECT_NE(dc0, dc1);
}

TEST(TabuRepair, FixesSameDatacenterGroup) {
  const Instance inst = make_instance(
      2, 2, {10.0, 10.0, 10.0},
      {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}},
      {{RelationKind::kSameDatacenter, {0, 1, 2}}});
  TabuRepair repair(inst);
  Rng rng(5);
  std::vector<std::int32_t> genes = {0, 1, 3};  // VM 2 in DC 1
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  const auto dc = inst.infra.datacenter_of(static_cast<std::size_t>(genes[0]));
  for (std::int32_t g : genes) {
    EXPECT_EQ(inst.infra.datacenter_of(static_cast<std::size_t>(g)), dc);
  }
}

TEST(TabuRepair, ReassemblesScatteredSameServerGroup) {
  // Regression: a 3-member same-server group scattered over three hosts
  // cannot be fixed by member-at-a-time moves (the first mover is always
  // invalid against its unmoved peers) — the repair must relocate the
  // group atomically.
  const Instance inst = make_instance(
      1, 4, {10.0, 10.0, 10.0},
      {{2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}, {2.0, 2.0, 2.0}},
      {{RelationKind::kSameServer, {0, 1, 2}}});
  TabuRepair repair(inst);
  Rng rng(41);
  std::vector<std::int32_t> genes = {0, 1, 2};  // fully scattered
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes[0], genes[1]);
  EXPECT_EQ(genes[1], genes[2]);
}

TEST(TabuRepair, MovesSatisfiedGroupOffTooSmallServer) {
  // Regression: a *satisfied* same-server group overloading a small host
  // deadlocks individual shedding (each member's solo move would break
  // the relation) — the capacity repair must relocate the whole group.
  FabricConfig fc;
  fc.datacenters = 1;
  fc.leaves_per_dc = 1;
  fc.servers_per_leaf = 2;
  std::vector<Server> servers = {
      test::make_server(0, {10.0, 10.0, 10.0}),   // too small for the pair
      test::make_server(0, {30.0, 30.0, 30.0})};  // big enough
  RequestSet requests;
  requests.vms = {test::make_vm({8.0, 8.0, 8.0}),
                  test::make_vm({8.0, 8.0, 8.0})};
  requests.constraints.push_back({RelationKind::kSameServer, {0, 1}});
  Instance inst(Infrastructure(fc, std::move(servers)),
                std::move(requests));

  TabuRepair repair(inst);
  Rng rng(43);
  std::vector<std::int32_t> genes = {0, 0};  // together but overloading
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes[0], 1);  // whole group moved to the big server
  EXPECT_EQ(genes[1], 1);
}

TEST(TabuRepair, FeasibleInputUntouched) {
  const Instance inst = make_instance(
      1, 2, {10.0, 10.0, 10.0}, {{1.0, 1.0, 1.0}, {1.0, 1.0, 1.0}});
  TabuRepair repair(inst);
  Rng rng(6);
  std::vector<std::int32_t> genes = {0, 1};
  const auto original = genes;
  EXPECT_EQ(repair.repair(genes, rng), 0u);
  EXPECT_EQ(genes, original);
}

TEST(TabuRepair, ImpossibleInstanceReportsRemainingViolations) {
  // Total demand exceeds total capacity: full repair cannot exist.
  const Instance inst = make_instance(
      1, 1, {10.0, 10.0, 10.0}, {{8.0, 8.0, 8.0}, {8.0, 8.0, 8.0}});
  TabuRepair repair(inst);
  Rng rng(7);
  std::vector<std::int32_t> genes = {0, 0};
  EXPECT_GT(repair.repair(genes, rng), 0u);
}

// Property: repair output on generated scenarios is always at least as
// feasible as the input, and typically fully feasible.
class TabuRepairProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TabuRepairProperty, NeverIncreasesViolations) {
  const Instance inst = make_random_instance(GetParam(), 16, 48);
  const ConstraintChecker checker(inst);
  TabuRepair repair(inst);
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<std::int32_t> genes(inst.n());
    for (auto& g : genes) {
      g = static_cast<std::int32_t>(rng.uniform_index(inst.m()));
    }
    const std::uint32_t before =
        checker.check(Placement(genes)).total();
    const std::uint32_t after = repair.repair(genes, rng);
    EXPECT_LE(after, before);
    EXPECT_EQ(after, checker.check(Placement(genes)).total());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TabuRepairProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(TabuRepair, RepairStateMatchesGenesEntryPoint) {
  // Both entry points must walk identically for the same RNG stream: the
  // fused pipeline relies on repair_state(kFull) reproducing exactly the
  // placement that repair() produces through its private kViolationsOnly
  // state.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Instance inst = make_random_instance(seed + 100, 8, 32);
    TabuRepair repair(inst);

    std::vector<std::int32_t> genes(inst.n());
    Rng gene_rng(seed);
    for (std::int32_t& g : genes) {
      g = static_cast<std::int32_t>(
          gene_rng.uniform_int(0, static_cast<std::int64_t>(inst.m()) - 1));
    }

    std::vector<std::int32_t> via_genes = genes;
    Rng rng_a(seed + 1);
    const std::uint32_t remaining_a = repair.repair(via_genes, rng_a);

    PlacementState state(inst, {}, StateTracking::kFull);
    state.rebuild(genes);
    Rng rng_b(seed + 1);
    const std::uint32_t remaining_b = repair.repair_state(state, rng_b);

    EXPECT_EQ(remaining_a, remaining_b);
    EXPECT_EQ(via_genes, state.placement().genes());
    EXPECT_EQ(state.total_violations(), remaining_b);
  }
}

TEST(TabuRepair, RepairStateAccumulatorsMatchFreshEvaluation) {
  // Fused repair-as-evaluation invariant: after the walk, the state's
  // objective accumulators agree with a from-scratch evaluation of the
  // repaired placement.
  const Instance inst = make_random_instance(222, 8, 40);
  TabuRepair repair(inst);
  PlacementState state(inst, {}, StateTracking::kFull);
  std::vector<std::int32_t> genes(inst.n(), 0);  // everything on server 0
  state.rebuild(genes);
  Rng rng(5);
  repair.repair_state(state, rng);

  PlacementState fresh(inst);
  fresh.rebuild(state.placement());
  constexpr double kTol = 1e-7;
  EXPECT_NEAR(state.objectives().usage_cost, fresh.objectives().usage_cost,
              kTol);
  EXPECT_NEAR(state.objectives().downtime_cost,
              fresh.objectives().downtime_cost, kTol);
  EXPECT_NEAR(state.objectives().migration_cost,
              fresh.objectives().migration_cost, kTol);
  EXPECT_EQ(state.total_violations(), fresh.total_violations());
}

}  // namespace
}  // namespace iaas
