#include "workload/generator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/expect.h"
#include "common/rng.h"
#include "model/placement_state.h"
#include "workload/strategic.h"

namespace iaas {

const std::vector<ServerClassParams>& default_server_classes() {
  // cpu, ram, disk, opex, usage, weight.  Opex grows with machine size
  // (power + floor space); usage cost per VM is roughly flat.
  static const std::vector<ServerClassParams> classes = {
      {16.0, 64.0, 1000.0, 10.0, 1.0, 0.40},   // small 1U
      {32.0, 128.0, 2000.0, 16.0, 1.2, 0.40},  // medium 2U
      {64.0, 256.0, 4000.0, 28.0, 1.5, 0.20},  // large 4U
  };
  return classes;
}

const std::vector<VmFlavorParams>& default_vm_flavors() {
  // OpenStack-like flavors; weights skew small, as real fleets do.
  static const std::vector<VmFlavorParams> flavors = {
      {1.0, 2.0, 20.0, 0.30},    // tiny
      {2.0, 4.0, 40.0, 0.30},    // small
      {4.0, 8.0, 80.0, 0.20},    // medium
      {8.0, 16.0, 160.0, 0.15},  // large
      {16.0, 32.0, 320.0, 0.05}, // xlarge
  };
  return flavors;
}

namespace {

// The generator's distribution parameters (DESIGN.md §4).  Every record
// carries the canonical cpu / ram / disk attributes.
constexpr std::size_t kAttributes = 3;

// Virtual-to-physical factor F_jl (Eq. 3): fraction of raw capacity
// usable by consumer resources after virtualisation overhead.
constexpr double kFactorMin = 0.85;
constexpr double kFactorMax = 0.95;

// QoS knee L^M_jl and ceiling Q^M_jl (Eq. 8).
constexpr double kMaxLoadMin = 0.70;
constexpr double kMaxLoadMax = 0.90;
constexpr double kMaxQosMin = 0.95;
constexpr double kMaxQosMax = 0.99;

// Multiplicative capacity noise around the class base value.
constexpr double kCapacityJitter = 0.10;

// QoS guarantee C^Q_k requested by consumers.
constexpr double kQosGuaranteeMin = 0.80;
constexpr double kQosGuaranteeMax = 0.94;

// SLA penalty C^U_k and migration cost M_k ranges.
constexpr double kDowntimeCostMin = 5.0;
constexpr double kDowntimeCostMax = 50.0;
constexpr double kMigrationCostMin = 1.0;
constexpr double kMigrationCostMax = 10.0;

// Members per relationship group.
constexpr std::uint32_t kGroupSizeMin = 2;
constexpr std::uint32_t kGroupSizeMax = 4;

// Relative frequencies of the four relationship kinds (Eqs. 9-12).
constexpr double kWeightSameDatacenter = 0.30;
constexpr double kWeightSameServer = 0.20;
constexpr double kWeightDifferentServers = 0.35;
constexpr double kWeightDifferentDatacenters = 0.15;

// Weighted index draw over a set of {.., weight} records.
template <typename T>
std::size_t draw_weighted(const std::vector<T>& items, Rng& rng) {
  double total = 0.0;
  for (const T& item : items) {
    total += item.weight;
  }
  double x = rng.uniform_real(0.0, total);
  for (std::size_t i = 0; i < items.size(); ++i) {
    x -= items[i].weight;
    if (x <= 0.0) {
      return i;
    }
  }
  return items.size() - 1;
}

double jittered(double base, double jitter, Rng& rng) {
  return base * rng.uniform_real(1.0 - jitter, 1.0 + jitter);
}

}  // namespace

ScenarioGenerator::ScenarioGenerator(ScenarioConfig config)
    : config_(std::move(config)) {
  IAAS_EXPECT(config_.datacenters > 0, "need at least one datacenter");
  IAAS_EXPECT(config_.total_servers > 0, "need at least one server");
  const std::vector<std::string> findings = validate_scenario(config_);
  for (const std::string& finding : findings) {
    IAAS_EXPECT(false, finding.c_str());
  }
}

FabricConfig ScenarioGenerator::fabric_config() const {
  FabricConfig fc;
  fc.datacenters = config_.datacenters;
  fc.servers_per_leaf = config_.servers_per_leaf;
  const std::uint32_t per_dc =
      (config_.total_servers + config_.datacenters - 1) / config_.datacenters;
  fc.leaves_per_dc =
      std::max(1u, (per_dc + fc.servers_per_leaf - 1) / fc.servers_per_leaf);
  fc.spines_per_dc = std::max(2u, fc.leaves_per_dc / 4);
  fc.cores = 2;
  return fc;
}

Infrastructure ScenarioGenerator::generate_infrastructure(
    std::uint64_t seed) const {
  Rng rng(seed ^ 0x696e667261ULL);  // independent of the request stream
  const FabricConfig fc = fabric_config();
  const Fabric fabric(fc);
  const std::size_t m = fabric.server_count();
  const std::vector<ServerClassParams>& classes = default_server_classes();

  std::vector<Server> servers(m);
  for (std::size_t j = 0; j < m; ++j) {
    Server& s = servers[j];
    s.datacenter = fabric.datacenter_of_server(static_cast<std::uint32_t>(j));
    const ServerClassParams& cls = classes[draw_weighted(classes, rng)];
    s.capacity.resize(kAttributes);
    s.factor.resize(kAttributes);
    s.max_load.resize(kAttributes);
    s.max_qos.resize(kAttributes);
    const std::array<double, kAttributes> base = {cls.cpu_cores, cls.ram_gb,
                                                  cls.disk_gb};
    for (std::size_t l = 0; l < kAttributes; ++l) {
      s.capacity[l] = jittered(base[l], kCapacityJitter, rng);
      s.factor[l] = rng.uniform_real(kFactorMin, kFactorMax);
      s.max_load[l] = rng.uniform_real(kMaxLoadMin, kMaxLoadMax);
      s.max_qos[l] = rng.uniform_real(kMaxQosMin, kMaxQosMax);
    }
    s.opex = jittered(cls.opex, 0.15, rng);
    s.usage_cost = jittered(cls.usage_cost, 0.15, rng);
  }
  return Infrastructure(fc, std::move(servers));
}

RequestSet ScenarioGenerator::generate_requests(const Infrastructure& infra,
                                                std::uint32_t count,
                                                std::uint64_t seed) const {
  Rng rng(seed ^ 0x72657173ULL);
  const std::size_t h = kAttributes;
  const std::vector<VmFlavorParams>& flavors = default_vm_flavors();

  RequestSet requests;
  requests.vms.resize(count);
  // Deterministic, draw-free consumer identity: VM k of every batch
  // belongs to consumer k mod consumers, so each consumer recurs in
  // every window with a comparable slice of the batch.
  if (config_.consumers > 0) {
    for (std::uint32_t k = 0; k < count; ++k) {
      requests.vms[k].consumer = k % config_.consumers;
    }
  }
  for (VmRequest& vm : requests.vms) {
    const VmFlavorParams& flavor = flavors[draw_weighted(flavors, rng)];
    vm.demand.resize(h);
    const std::array<double, kAttributes> base = {
        flavor.cpu_cores, flavor.ram_gb, flavor.disk_gb};
    for (std::size_t l = 0; l < h; ++l) {
      vm.demand[l] = jittered(base[l], 0.05, rng);
    }
    vm.qos_guarantee = rng.uniform_real(kQosGuaranteeMin, kQosGuaranteeMax);
    vm.downtime_cost = rng.uniform_real(kDowntimeCostMin, kDowntimeCostMax);
    vm.migration_cost = rng.uniform_real(kMigrationCostMin, kMigrationCostMax);
  }

  // Relationship groups (each VM in at most one group).
  std::vector<std::uint32_t> pool(count);
  std::iota(pool.begin(), pool.end(), 0u);
  rng.shuffle(pool);
  const auto constrained = static_cast<std::size_t>(
      config_.constrained_fraction * static_cast<double>(count));
  std::size_t cursor = 0;

  // Largest effective capacity per attribute, to keep same-server groups
  // satisfiable by construction.
  std::vector<double> max_eff(h, 0.0);
  for (std::size_t j = 0; j < infra.server_count(); ++j) {
    for (std::size_t l = 0; l < h; ++l) {
      max_eff[l] =
          std::max(max_eff[l], infra.server(j).effective_capacity(l));
    }
  }

  struct KindWeight {
    RelationKind kind;
    double weight;
  };
  const std::vector<KindWeight> kind_weights = {
      {RelationKind::kSameDatacenter, kWeightSameDatacenter},
      {RelationKind::kSameServer, kWeightSameServer},
      {RelationKind::kDifferentServers, kWeightDifferentServers},
      {RelationKind::kDifferentDatacenters, kWeightDifferentDatacenters},
  };

  while (cursor + kGroupSizeMin <= constrained) {
    const auto want = static_cast<std::uint32_t>(
        rng.uniform_int(kGroupSizeMin, kGroupSizeMax));
    const std::size_t size = std::min<std::size_t>(want, constrained - cursor);
    if (size < kGroupSizeMin) {
      break;
    }
    PlacementConstraint c;
    c.kind = kind_weights[draw_weighted(kind_weights, rng)].kind;
    c.vms.assign(pool.begin() + static_cast<std::ptrdiff_t>(cursor),
                 pool.begin() + static_cast<std::ptrdiff_t>(cursor + size));
    cursor += size;

    // Keep generated scenarios satisfiable by construction:
    //  * a different-datacenters group cannot exceed g members;
    //  * a same-server group must fit the largest server.
    if (c.kind == RelationKind::kDifferentDatacenters &&
        c.vms.size() > infra.datacenter_count()) {
      c.kind = RelationKind::kDifferentServers;
    }
    if (c.kind == RelationKind::kSameServer) {
      for (std::size_t l = 0; l < h; ++l) {
        double sum = 0.0;
        for (std::uint32_t k : c.vms) {
          sum += requests.vms[k].demand[l];
        }
        if (sum > max_eff[l]) {
          c.kind = RelationKind::kSameDatacenter;
          break;
        }
      }
    }
    requests.constraints.push_back(std::move(c));
  }

  // Strategic misreporting post-pass.  Runs on private per-consumer
  // streams after every honest draw above, so the honest output is
  // byte-identical whenever the pass is disabled.
  apply_strategies(requests, infra, config_, seed);
  return requests;
}

Instance ScenarioGenerator::generate(std::uint64_t seed) const {
  Infrastructure infra = generate_infrastructure(seed);
  RequestSet requests = generate_requests(infra, config_.vms, seed);
  Instance instance(std::move(infra), std::move(requests));

  // Previous placement (for the migration objective).
  if (config_.preplaced_fraction > 0.0) {
    Rng rng(seed ^ 0x70726576ULL);
    PlacementState prev(instance, {}, StateTracking::kViolationsOnly);
    const auto preplaced = static_cast<std::size_t>(
        config_.preplaced_fraction * static_cast<double>(instance.n()));
    for (std::size_t k = 0; k < preplaced; ++k) {
      // Greedy random feasible placement; skip VMs that do not fit.
      const std::size_t start = rng.uniform_index(instance.m());
      for (std::size_t off = 0; off < instance.m(); ++off) {
        const std::size_t j = (start + off) % instance.m();
        if (prev.is_valid_allocation(k, j)) {
          prev.apply_move(k, static_cast<std::int32_t>(j));
          break;
        }
      }
    }
    instance.previous = prev.placement();
  }

  return instance;
}

}  // namespace iaas
