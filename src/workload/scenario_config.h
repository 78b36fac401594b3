// Parameterisation of the random scenario generator.
//
// The paper evaluates on "randomly generated [conditions, scenarios,
// requests and infrastructures] with parameter configurations that
// reflect typical infrastructures sizes and cloud provider practices"
// (sizes up to 800 servers / 1600 VMs, managed as OpenStack-style blocks).
// No dataset was published, so every distribution parameter is an
// explicit constant of the generator (workload/generator.cpp), and all
// draws flow from one seed (DESIGN.md §4).  What stays settable here is
// the scenario's shape: fleet and batch sizes, how many VMs are grouped
// or already running, and the consumer mix.
#pragma once

#include <cstdint>
#include <vector>

namespace iaas {

// Hardware classes "typical" of provider fleets; capacities are drawn
// around these base values with multiplicative noise.
struct ServerClassParams {
  double cpu_cores;
  double ram_gb;
  double disk_gb;
  double opex;        // E_j base, monetary units per allocation window
  double usage_cost;  // U_j base, per hosted VM per window
  double weight;      // sampling weight within the fleet
};

// VM flavors, OpenStack-like t-shirt sizes.
struct VmFlavorParams {
  double cpu_cores;
  double ram_gb;
  double disk_gb;
  double weight;
};

// How one strategic consumer misrepresents its workload.  A strategic
// consumer draws a per-VM inflation factor in [inflation_min,
// inflation_max] and multiplies every reported demand attribute by it
// (the honest vector is preserved in VmRequest::true_demand); it may
// additionally pad its request set with a fabricated anti-affinity
// group (spreading its VMs over distinct servers it does not need) and
// time demand bursts: with probability burst_probability a whole batch
// is inflated by an extra burst_multiplier.
struct StrategyProfile {
  double inflation_min = 1.2;               // >= 1
  double inflation_max = 1.8;               // >= inflation_min
  double pad_anti_affinity_probability = 0.5;  // in [0, 1]
  std::uint32_t pad_group_size = 3;         // >= 2 members per padded group
  double burst_probability = 0.25;          // in [0, 1], per request batch
  double burst_multiplier = 1.5;            // >= 1, stacks on inflation
};

// Strategic-consumer mode: a deterministic post-pass over honestly
// generated request batches.  With strategic_fraction == 0 the pass is
// skipped entirely and the generator output is byte-identical to the
// honest path.
struct StrategicConfig {
  // Fraction of consumers that behave strategically, in [0, 1].
  // Membership is decided by hashing the consumer id, so the strategic
  // set is stable across windows and request batches.
  double strategic_fraction = 0.0;

  // Profiles assigned round-robin over strategic consumers
  // (profiles[c % profiles.size()]).  Must be non-empty whenever
  // strategic_fraction > 0.
  std::vector<StrategyProfile> profiles;

  bool enabled() const { return strategic_fraction > 0.0; }
};

// A small default mix: one aggressive inflator, one affinity padder,
// one bursty consumer.
std::vector<StrategyProfile> default_strategy_profiles();

struct ScenarioConfig {
  // --- infrastructure ---
  std::uint32_t datacenters = 2;
  std::uint32_t total_servers = 64;   // rounded up to full leaves
  std::uint32_t servers_per_leaf = 8;

  // --- requests ---
  std::uint32_t vms = 128;

  // --- affinity / anti-affinity groups ---
  // Fraction of VMs that participate in a relationship group; each VM
  // joins at most one group (prevents contradictory combinations).
  double constrained_fraction = 0.30;

  // --- consumers ---
  // Number of distinct consumers (tenants).  VM k of a batch belongs to
  // consumer k % consumers, so every consumer shows up in every batch.
  // 0 = legacy anonymous mode: no consumer ids, no fairness columns.
  std::uint32_t consumers = 0;

  // Strategic misreporting; inert unless consumers > 0 and
  // strategic.strategic_fraction > 0.
  StrategicConfig strategic;

  // --- previous placement (migration term) ---
  // Fraction of VMs that were already running in the previous window (and
  // hence may incur migration cost when moved).  0 = all requests fresh.
  double preplaced_fraction = 0.0;

  // Convenience: paper-style scenario of `servers` hosts and 2x VMs.
  static ScenarioConfig paper_scale(std::uint32_t servers,
                                    std::uint32_t datacenters = 2) {
    ScenarioConfig cfg;
    cfg.total_servers = servers;
    cfg.datacenters = datacenters;
    cfg.vms = servers * 2;  // paper: 800 servers / 1600 VMs
    return cfg;
  }
};

}  // namespace iaas
