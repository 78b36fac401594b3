// Cyclic time-window scheduler (paper §III: "Our scheduler is aware of
// the cloud platform status in real time. Our idea is to directly include
// all requests within a cyclic time window during the execution of the
// allocation optimization process.").
//
// Each window: failed servers repair or fail per the FaultModel's
// lifecycle, some running VMs depart, queued rejects whose backoff
// elapsed re-enter, a fresh arrival batch lands (through the admission
// queue when one is configured), and the fleet's round (sim/fleet)
// solves one Instance containing every VM that should be running — with
// the current placement as `previous`, so migrations are priced by
// Eq. 26.  The sanitized result is applied as a reconfiguration plan;
// VMs it could not place go to the bounded retry queue instead of
// vanishing.  What the loop keeps for itself: the admission queue, the
// fairness columns, the allocator trace and the down-server invariant.
//
// Graceful degradation: when the allocator exceeds its per-window budget
// the window is served anyway — first by the EA's best-front-so-far
// (anytime truncation, NsgaConfig::time_limit_seconds), and if the
// allocator fails outright (throws) or blows the hard deadline, by a
// greedy first-fit pass — rather than stalling the horizon.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "algo/allocator.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "model/instance.h"
#include "sim/fault_model.h"
#include "sim/fleet.h"
#include "sim/retry_queue.h"
#include "workload/generator.h"

namespace iaas {

// Poisson-distributed arrival count.  Knuth's multiplicative sampler for
// small means; large means (where exp(-mean) would underflow, mean >
// ~745) are split into <= 500 chunks and summed — Poisson additivity
// keeps the distribution exact for arbitrarily heavy traffic.  The mean
// must be finite; a negative one yields 0.
std::size_t poisson_sample(double mean, Rng& rng);

struct SimConfig {
  std::size_t windows = 10;
  double arrivals_per_window_mean = 20.0;  // Poisson arrivals, finite >= 0
  double departure_probability = 0.10;     // per running VM per window, [0, 1]
  // Platform failures with a lifecycle: correlated rack outages, MTTR
  // measured in windows, permanent decommissions, scripted scenarios.
  FaultConfig faults;
  // Bounded retry queue for rejected/evicted VMs (max_attempts 0 keeps
  // the legacy drop-on-reject behaviour).
  RetryPolicy retry;
  // Per-window allocator budget (seconds; 0 = unlimited; the constructor
  // refuses a negative or NaN one).  Passed to the allocator via
  // set_time_budget so anytime algorithms self-truncate; such windows
  // are reported degraded (kBestEffort).  NOTE: enabling it makes window
  // outcomes wall-clock-dependent — determinism tests keep it 0 or force
  // it below any real solve time.
  double allocator_deadline_seconds = 0.0;
  // Hard ceiling as a multiple of the deadline (0 = never; negative or
  // NaN refused): when one allocate call exceeds deadline * hard factor,
  // its (stale) result is discarded and the greedy fallback serves the
  // window (kFallback).
  double deadline_hard_factor = 0.0;
  // Explicit per-window arrival counts (e.g. a recorded or hand-written
  // load curve).  When non-empty it overrides the Poisson arrivals;
  // windows beyond its length wrap around (periodic schedule).
  std::vector<std::size_t> arrival_schedule;
  // Persist the allocator's final front across windows and feed it back
  // (Allocator::seed_next_run) as seeds for the next window's search.
  // Front gene vectors are compacted/extended in lockstep with the live
  // placement, so they stay aligned with the next window's VM indexing.
  // No-op for allocators that decline the hand-off (non-EA).
  bool warm_start_front = false;
  // Admission control (throughput driver): at most this many arrival VMs
  // enter the allocation instance per window (0 = unlimited, the legacy
  // behaviour).  Excess arrivals wait in a FIFO admission queue, admitted
  // as whole relationship units in arrival order — a unit is never split
  // across windows, so its constraints always enter intact.  A unit
  // larger than the whole budget is admitted alone when it reaches the
  // queue front (guaranteed progress).  Retried VMs bypass the queue:
  // they already waited their backoff.
  std::size_t max_admissions_per_window = 0;
  // Cap on the admission queue depth in VMs (0 = unbounded): a unit
  // whose arrival would push the backlog past the cap is shed entirely
  // and counted in admission_dropped — load shedding, not deferral.
  std::size_t admission_queue_limit = 0;
  ScenarioConfig scenario;                 // infrastructure + request shape
};

// The single arrival rule of both simulators' windows: a non-empty
// schedule is periodic (window modulo its length); an empty schedule
// falls back to Poisson(mean) — which consumes rng draws, so the two
// modes intentionally produce different downstream streams.
std::size_t window_arrivals(const std::vector<std::size_t>& schedule,
                            double mean, std::size_t window, Rng& rng);

// Per-provider slice of one multi-cloud window (broker/multicloud_sim).
// Single-cloud simulations leave WindowMetrics::providers empty, so the
// fingerprint of an existing trace is unchanged... except that the
// column count is itself hashed, keeping "no providers" and "one silent
// provider" distinguishable.
struct ProviderWindowMetrics {
  std::uint32_t provider = 0;        // index into the CloudMarket
  bool online = true;
  double price_multiplier = 1.0;     // effective (billing x spot x shock)
  std::size_t running = 0;           // VMs hosted after the window
  std::size_t routed = 0;            // VMs the broker sent here this window
  std::size_t rejected = 0;          // of this provider's slice instance
  std::size_t evicted = 0;           // previously running, lost this window
  std::size_t redirects_in = 0;      // arrivals that were redirects
  std::size_t failed_servers = 0;    // provider-local fault model
  std::size_t migrations = 0;        // intra-cloud, from the plan
  double migration_cost = 0.0;
  ObjectiveVector objectives;        // price-scaled Eq. 22/23/26 split
};

template <fields::Of<ProviderWindowMetrics> Self, typename V>
void visit_fields(Self& p, V& v) {
  using enum fields::Tag;
  v.leaf("provider", p.provider, kDeterministic);
  v.leaf("online", p.online, kDeterministic);
  v.leaf("price_multiplier", p.price_multiplier, kDeterministic);
  v.leaf("running", p.running, kDeterministic);
  v.leaf("routed", p.routed, kDeterministic);
  v.leaf("rejected", p.rejected, kDeterministic);
  v.leaf("evicted", p.evicted, kDeterministic);
  v.leaf("redirects_in", p.redirects_in, kDeterministic);
  v.leaf("failed_servers", p.failed_servers, kDeterministic);
  v.leaf("migrations", p.migrations, kDeterministic);
  v.leaf("migration_cost", p.migration_cost, kDeterministic);
  v.tuple("objectives", p.objectives);
}

// Fairness/welfare columns of one window (model/fairness.h definitions).
// consumers == 0 marks the block as absent — legacy anonymous runs and
// windows with no live VMs keep their trace shape and fingerprint.
struct FairnessWindowMetrics {
  std::size_t consumers = 0;            // distinct consumers this window
  std::size_t strategic_consumers = 0;  // of those, with misreported VMs
  std::size_t strategic_vms = 0;        // VMs carrying a true_demand
  double jain_index = 1.0;              // over served dominant shares
  double long_term_jain = 1.0;          // over shares summed since window 0
  double envy = 0.0;                    // mean welfare shortfall vs best-off
  double utilization_efficiency = 1.0;  // served actual / served reported
  double honest_welfare = 0.0;          // mean honest-consumer welfare
  double strategic_welfare = 0.0;       // mean strategic-consumer welfare
  double energy_cost = 0.0;             // powered-server energy draw
};

template <fields::Of<FairnessWindowMetrics> Self, typename V>
void visit_fields(Self& f, V& v) {
  using enum fields::Tag;
  v.leaf("consumers", f.consumers, kDeterministic);
  v.leaf("strategic_consumers", f.strategic_consumers, kDeterministic);
  v.leaf("strategic_vms", f.strategic_vms, kDeterministic);
  v.leaf("jain_index", f.jain_index, kDeterministic);
  v.leaf("long_term_jain", f.long_term_jain, kDeterministic);
  v.leaf("envy", f.envy, kDeterministic);
  v.leaf("utilization_efficiency", f.utilization_efficiency, kDeterministic);
  v.leaf("honest_welfare", f.honest_welfare, kDeterministic);
  v.leaf("strategic_welfare", f.strategic_welfare, kDeterministic);
  v.leaf("energy_cost", f.energy_cost, kDeterministic);
}

struct WindowMetrics {
  std::size_t window = 0;
  std::size_t arrived = 0;
  std::size_t departed = 0;
  std::size_t running = 0;    // after applying the plan
  std::size_t rejected = 0;   // of this window's full instance
  std::size_t boots = 0;
  std::size_t migrations = 0;
  double migration_cost = 0.0;
  // --- failure lifecycle ---
  std::size_t failed_servers = 0;     // servers unavailable this window
  std::size_t repaired_servers = 0;   // repair events this window
  std::size_t decommissioned_servers = 0;  // cumulative permanent losses
  std::size_t displaced_vms = 0;      // VMs hosted on servers that failed
  std::size_t vms_on_down_servers = 0;  // after the plan (invariant: 0)
  std::vector<FaultEvent> fault_events;
  // --- retry queue ---
  std::size_t evicted = 0;   // previously running VMs rejected this window
  std::size_t retried = 0;   // queued VMs re-entering this window
  std::size_t permanently_rejected = 0;  // retry budget exhausted
  std::size_t retry_queue_depth = 0;     // after the window
  // --- multi-cloud broker (empty/zero in single-cloud runs) ---
  std::vector<ProviderWindowMetrics> providers;
  std::size_t redirects = 0;  // cross-cloud redirections this window
  std::size_t offline_providers = 0;  // dark clouds during the window
  double cross_cloud_migration_cost = 0.0;  // egress-priced moves
  // --- admission control (all zero when max_admissions_per_window == 0) ---
  std::size_t admitted = 0;            // arrival VMs entering the instance
  std::size_t admission_deferred = 0;  // fresh arrivals pushed to later windows
  std::size_t admission_dropped = 0;   // shed at the queue cap
  std::size_t admission_queue_depth = 0;  // backlog VMs after the window
  // --- sharded allocator (shard_count 0 = unsharded window) ---
  ShardRunStats shard;
  // --- fairness/welfare (consumers 0 = block absent; scenario.consumers
  // == 0 or an empty window) ---
  FairnessWindowMetrics fairness;
  // --- graceful degradation ---
  DegradeLevel degrade = DegradeLevel::kNone;
  std::string fallback_algorithm;  // set when degrade == kFallback
  ObjectiveVector objectives;  // of the applied placement
  double solve_seconds = 0.0;
  // Per-window decision trace of the allocator's search (empty for
  // non-EA allocators or when NsgaConfig::collect_trace is off).
  telemetry::RunTrace allocator_trace;
};

// One window of a sim trace.  Blocks that are absent stay out of the
// JSON, so traces of runs without a feature keep their legacy shape.
// The fingerprint still hashes absent blocks (a zero provider count
// tells "no market" from "a market of silent providers"), except the
// fairness block, which then hashes only its zero consumer count.
// Flag bits and fingerprint rules are binary format version 1.
template <fields::Of<WindowMetrics> Self, typename V>
void visit_fields(Self& w, V& v) {
  using enum fields::Tag;
  v.leaf("window", w.window, kDeterministic);
  v.leaf("arrived", w.arrived, kDeterministic);
  v.leaf("departed", w.departed, kDeterministic);
  v.leaf("running", w.running, kDeterministic);
  v.leaf("rejected", w.rejected, kDeterministic);
  v.leaf("boots", w.boots, kDeterministic);
  v.leaf("migrations", w.migrations, kDeterministic);
  v.leaf("migration_cost", w.migration_cost, kDeterministic);
  v.leaf("failed_servers", w.failed_servers, kDeterministic);
  v.leaf("repaired_servers", w.repaired_servers, kDeterministic);
  v.leaf("decommissioned_servers", w.decommissioned_servers, kDeterministic);
  v.leaf("displaced_vms", w.displaced_vms, kDeterministic);
  v.leaf("vms_on_down_servers", w.vms_on_down_servers, kDeterministic);
  v.list("fault_events", w.fault_events, kDeterministic,
         /*fingerprint_length=*/false);
  v.leaf("evicted", w.evicted, kDeterministic);
  v.leaf("retried", w.retried, kDeterministic);
  v.leaf("permanently_rejected", w.permanently_rejected, kDeterministic);
  v.leaf("retry_queue_depth", w.retry_queue_depth, kDeterministic);
  v.block({.key = "providers", .nested = false, .flag = 1u << 0},
          !w.providers.empty(), [&](auto& b) {
            b.list("providers", w.providers, kDeterministic);
            b.leaf("redirects", w.redirects, kDeterministic);
            b.leaf("offline_providers", w.offline_providers, kDeterministic);
            b.leaf("cross_cloud_migration_cost", w.cross_cloud_migration_cost,
                   kDeterministic);
          });
  v.block({.key = "admission", .flag = 1u << 1},
          w.admitted != 0 || w.admission_deferred != 0 ||
              w.admission_dropped != 0 || w.admission_queue_depth != 0,
          [&](auto& b) {
            b.leaf("admitted", w.admitted, kDeterministic);
            b.leaf("deferred", w.admission_deferred, kDeterministic);
            b.leaf("dropped", w.admission_dropped, kDeterministic);
            b.leaf("queue_depth", w.admission_queue_depth, kDeterministic);
          });
  v.block({.key = "shard", .flag = 1u << 2}, w.shard.shard_count != 0,
          [&](auto& b) { visit_fields(w.shard, b); });
  v.block({.key = "fairness", .flag = 1u << 4,
           .hash = fields::Hash::kLeadAlways},
          w.fairness.consumers != 0,
          [&](auto& b) { visit_fields(w.fairness, b); });
  v.leaf("degrade", w.degrade, kDeterministic,
         fields::Names<DegradeLevel>{degrade_level_name,
                                     DegradeLevel::kFallback});
  v.leaf("fallback_algorithm", w.fallback_algorithm, kDeterministic);
  v.tuple("objectives", w.objectives);
  v.leaf("solve_seconds", w.solve_seconds, kWallClock);
  v.block({.key = "allocator_trace", .flag = 1u << 3},
          !w.allocator_trace.empty(),
          [&](auto& b) { visit_fields(w.allocator_trace, b); });
}

// Horizon-level roll-up of the failure/degradation columns.
struct SimSummary {
  std::size_t fault_events = 0;
  std::size_t evicted = 0;
  std::size_t retried = 0;
  std::size_t permanently_rejected = 0;
  std::size_t degraded_windows = 0;
  std::size_t displaced_vms = 0;
  double migration_cost = 0.0;
  double downtime_cost = 0.0;
  // Multi-cloud columns (zero for single-cloud traces).
  std::size_t redirects = 0;
  double cross_cloud_migration_cost = 0.0;
  // Admission control (zero without max_admissions_per_window).
  std::size_t admission_deferred = 0;
  std::size_t admission_dropped = 0;
};

SimSummary summarize(const std::vector<WindowMetrics>& metrics);

// Order-sensitive FNV-1a digest of every leaf the field lists tag
// kDeterministic: all counts, objective/migration-cost bit patterns,
// fault events, degrade levels, and the allocator trace's generation,
// evaluations, front size and best objectives.  Wall times
// (solve_seconds, the trace's seconds columns), the trace's
// telemetry-counter columns (zero in IAAS_TELEMETRY=OFF builds) and its
// label and seed are excluded, so the digest must match across thread
// counts AND across telemetry build modes — the simulator determinism
// contract.
std::uint64_t deterministic_fingerprint(
    const std::vector<WindowMetrics>& metrics);

class CloudSimulator {
 public:
  // `fallback` serves windows the primary allocator loses to its hard
  // deadline or to an exception; null installs greedy first-fit
  // (algo/heuristics).
  CloudSimulator(SimConfig config, std::unique_ptr<Allocator> allocator,
                 std::unique_ptr<Allocator> fallback = nullptr);

  // Run the full horizon; one metrics row per window.
  std::vector<WindowMetrics> run(std::uint64_t seed);

  // Observe each completed WindowMetrics row as run() finishes it (after
  // the row is final, before the next window starts).  Streaming trace
  // writers (io/trace_stream) hook in here so a long horizon is flushed
  // incrementally instead of buffered whole; the callback must not
  // mutate the row.  Lives here rather than in io because io already
  // depends on sim.
  void set_window_sink(std::function<void(const WindowMetrics&)> sink) {
    window_sink_ = std::move(sink);
  }

  [[nodiscard]] const SimConfig& config() const { return config_; }

 private:
  SimConfig config_;
  std::unique_ptr<Allocator> allocator_;
  std::unique_ptr<Allocator> fallback_;
  std::function<void(const WindowMetrics&)> window_sink_;
};

}  // namespace iaas
