#include "sim/simulator.h"

#include <bit>
#include <cmath>
#include <deque>
#include <exception>
#include <utility>

#include "algo/heuristics.h"
#include "common/expect.h"
#include "common/stopwatch.h"
#include "model/assignment_units.h"

namespace iaas {
namespace {

// Knuth's Poisson sampler.  Only valid while exp(-mean) stays a normal
// double — the caller chunks larger means.
std::size_t poisson_knuth(double mean, Rng& rng) {
  const double limit = std::exp(-mean);
  std::size_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.next_double();
  } while (p > limit);
  return k - 1;
}

// Drop the entries of `v` whose keep flag is 0, preserving order — the
// companion of compact_requests for per-VM side arrays.
template <typename T>
void compact_parallel(std::vector<T>& v, const std::vector<char>& keep) {
  std::size_t out = 0;
  for (std::size_t k = 0; k < v.size(); ++k) {
    if (keep[k] != 0) {
      v[out++] = std::move(v[k]);
    }
  }
  v.resize(out);
}

// FNV-1a over the field lists' deterministic leaves, in trace order.
// List lengths and Block::hash are data in the lists, so the legacy
// digest's irregularities need no branch here.
class Fingerprint {
 public:
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      byte(v >> (8 * i));
    }
  }

  template <typename T, typename... Names>
  void leaf(const char*, const T& v, fields::Tag tag, Names...) {
    if (tag != fields::Tag::kDeterministic || skip_) {
      return;
    }
    skip_ = lead_only_;
    if constexpr (std::is_same_v<T, std::string>) {
      u64(v.size());
      for (char c : v) {
        byte(static_cast<unsigned char>(c));
      }
    } else if constexpr (std::is_floating_point_v<T>) {
      u64(std::bit_cast<std::uint64_t>(v));
    } else {
      u64(static_cast<std::uint64_t>(v));
    }
  }

  template <typename T>
  void list(const char* key, const std::vector<T>& items, fields::Tag tag,
            bool fingerprint_length = true) {
    if (fingerprint_length && tag == fields::Tag::kDeterministic) {
      u64(items.size());
    }
    for (const T& item : items) {
      if constexpr (fields::Scalar<T>) {
        leaf(key, item, tag);
      } else {
        visit_fields(item, *this);
      }
    }
  }

  template <typename S>
  void tuple(const char*, const S& s) {
    visit_fields(s, *this);
  }

  template <typename Row>
  void table(const char*, const std::vector<std::string>&, const char* key,
             const std::vector<Row>& rows) {
    list(key, rows, fields::Tag::kDeterministic);
  }

  template <typename List>
  void block(const fields::Block& b, bool present, List&& list) {
    lead_only_ = !present && b.hash == fields::Hash::kLeadAlways;
    list(*this);
    lead_only_ = skip_ = false;
  }

 private:
  void byte(std::uint64_t b) { h = (h ^ (b & 0xffULL)) * 0x100000001b3ULL; }

  bool lead_only_ = false;  // inside an absent kLeadAlways block
  bool skip_ = false;       // its lead leaf is hashed: skip the rest
};

}  // namespace

std::size_t poisson_sample(double mean, Rng& rng) {
  if (mean <= 0.0) {
    return 0;
  }
  // exp(-mean) underflows to 0 for mean > ~745, after which Knuth's loop
  // only terminates when the running product itself underflows — the
  // result is distribution garbage, not Poisson.  Split the mean into
  // <= 500 chunks instead: a sum of independent Poisson(m_i) draws is
  // Poisson(sum m_i), and exp(-500) ~ 7e-218 is comfortably normal.
  constexpr double kChunk = 500.0;
  std::size_t total = 0;
  while (mean > kChunk) {
    total += poisson_knuth(kChunk, rng);
    mean -= kChunk;
  }
  return total + poisson_knuth(mean, rng);
}

// Remove the VMs with keep[k] == 0 from the set + placement, remapping
// relationship-group indices (groups shrinking below two members vanish).
void compact_requests(RequestSet& requests, Placement& placement,
                      const std::vector<char>& keep) {
  std::vector<std::uint32_t> remap(requests.vms.size(), 0);
  std::vector<VmRequest> vms;
  std::vector<std::int32_t> genes;
  for (std::size_t k = 0; k < requests.vms.size(); ++k) {
    if (keep[k] == 0) {
      continue;
    }
    remap[k] = static_cast<std::uint32_t>(vms.size());
    vms.push_back(std::move(requests.vms[k]));
    genes.push_back(placement.server_of(k));
  }
  std::vector<PlacementConstraint> constraints;
  for (PlacementConstraint& c : requests.constraints) {
    std::vector<std::uint32_t> members;
    for (std::uint32_t k : c.vms) {
      if (keep[k] != 0) {
        members.push_back(remap[k]);
      }
    }
    if (members.size() >= 2) {
      constraints.push_back({c.kind, std::move(members)});
    }
  }
  requests.vms = std::move(vms);
  requests.constraints = std::move(constraints);
  placement = Placement(std::move(genes));
}

std::size_t window_arrivals(const SimConfig& config, std::size_t window,
                            Rng& rng) {
  if (!config.arrival_schedule.empty()) {
    return config.arrival_schedule[window % config.arrival_schedule.size()];
  }
  return poisson_sample(config.arrivals_per_window_mean, rng);
}

const char* degrade_level_name(DegradeLevel level) {
  switch (level) {
    case DegradeLevel::kNone:
      return "none";
    case DegradeLevel::kBestEffort:
      return "best_effort";
    case DegradeLevel::kFallback:
      return "fallback";
  }
  return "unknown";
}

SimSummary summarize(const std::vector<WindowMetrics>& metrics) {
  SimSummary s;
  for (const WindowMetrics& row : metrics) {
    s.fault_events += row.fault_events.size();
    s.evicted += row.evicted;
    s.retried += row.retried;
    s.permanently_rejected += row.permanently_rejected;
    s.degraded_windows += row.degrade != DegradeLevel::kNone ? 1 : 0;
    s.displaced_vms += row.displaced_vms;
    s.migration_cost += row.migration_cost;
    s.downtime_cost += row.objectives.downtime_cost;
    s.redirects += row.redirects;
    s.cross_cloud_migration_cost += row.cross_cloud_migration_cost;
    s.admission_deferred += row.admission_deferred;
    s.admission_dropped += row.admission_dropped;
  }
  return s;
}

std::uint64_t deterministic_fingerprint(
    const std::vector<WindowMetrics>& metrics) {
  Fingerprint fp;
  fp.u64(metrics.size());
  for (const WindowMetrics& row : metrics) {
    visit_fields(row, fp);
  }
  return fp.h;
}

CloudSimulator::CloudSimulator(SimConfig config,
                               std::unique_ptr<Allocator> allocator,
                               std::unique_ptr<Allocator> fallback)
    : config_(std::move(config)),
      allocator_(std::move(allocator)),
      fallback_(std::move(fallback)) {
  IAAS_EXPECT(allocator_ != nullptr, "simulator needs an allocator");
}

Allocator& CloudSimulator::fallback_allocator() {
  if (fallback_ == nullptr) {
    fallback_ = std::make_unique<FirstFitDecreasingAllocator>();
  }
  return *fallback_;
}

std::vector<WindowMetrics> CloudSimulator::run(std::uint64_t seed) {
  Rng rng(seed);
  ScenarioGenerator generator(config_.scenario);
  const Infrastructure infra = generator.generate_infrastructure(seed);

  // The fault model owns an independent stream so enabling/disabling
  // telemetry or reordering allocator draws can never shift its history.
  FaultModel fault_model(config_.faults, infra.fabric(), rng.next_u64());
  RetryQueue retries(config_.retry);

  if (config_.allocator_deadline_seconds > 0.0) {
    allocator_->set_time_budget(config_.allocator_deadline_seconds);
  }

  RequestSet live;        // every VM that should be running
  Placement live_placement(0);
  // Failed placement attempts consumed by each live VM (index-parallel
  // with live.vms; fresh arrivals start at 0, retried VMs carry theirs).
  std::vector<std::size_t> attempts;
  // warm_start_front: the previous window's final front, each gene
  // vector kept index-parallel with live.vms through the same
  // compactions/appends as the live placement.
  std::vector<std::vector<std::int32_t>> carried_front;
  // Admission backlog (max_admissions_per_window > 0): whole relationship
  // units waiting to enter the live set, FIFO in arrival order.  A unit's
  // constraints are stored with unit-local indices and remapped when the
  // unit is admitted.
  struct AdmissionUnit {
    std::vector<VmRequest> vms;
    std::vector<PlacementConstraint> constraints;
  };
  std::deque<AdmissionUnit> admission_queue;
  std::size_t admission_backlog = 0;  // VMs across admission_queue
  const auto compact_front = [&carried_front](const std::vector<char>& keep) {
    for (std::vector<std::int32_t>& genes : carried_front) {
      compact_parallel(genes, keep);
    }
  };
  const auto extend_front = [&carried_front](std::size_t count) {
    for (std::vector<std::int32_t>& genes : carried_front) {
      genes.insert(genes.end(), count, Placement::kRejected);
    }
  };

  // Long-term fairness: per-consumer served shares summed over the whole
  // horizon so far (index = consumer id).  Only consumers that have
  // appeared in some window participate in the long-term Jain index.
  const bool track_fairness = config_.scenario.consumers > 0;
  std::vector<double> cumulative_share(
      track_fairness ? config_.scenario.consumers : 0, 0.0);
  std::vector<char> consumer_seen(
      track_fairness ? config_.scenario.consumers : 0, 0);

  std::vector<WindowMetrics> metrics;
  metrics.reserve(config_.windows);

  for (std::size_t w = 0; w < config_.windows; ++w) {
    telemetry::CounterBlock window_counters;
    telemetry::ScopedSink sink(window_counters);
    telemetry::ScopedPhaseTimer window_phase(telemetry::Phase::kSimWindow);

    WindowMetrics row;
    row.window = w;

    // Fault lifecycle first — repairs and outages tick on every window,
    // including empty ones (an MTTR clock does not pause for idle load).
    row.fault_events = fault_model.advance(w);
    for (const FaultEvent& e : row.fault_events) {
      if (e.kind == FaultEventKind::kRepair) {
        ++row.repaired_servers;
      }
    }
    telemetry::count(telemetry::Counter::kSimFaultEvents,
                     row.fault_events.size());
    row.failed_servers = fault_model.down_count();
    row.decommissioned_servers = fault_model.decommissioned_count();

    // Departures among currently running VMs.
    if (!live.vms.empty() && config_.departure_probability > 0.0) {
      std::vector<char> keep(live.vms.size(), 1);
      for (std::size_t k = 0; k < live.vms.size(); ++k) {
        if (rng.bernoulli(config_.departure_probability)) {
          keep[k] = 0;
          ++row.departed;
        }
      }
      if (row.departed > 0) {
        compact_requests(live, live_placement, keep);
        compact_parallel(attempts, keep);
        compact_front(keep);
      }
    }

    // Queued rejects whose backoff elapsed re-enter ahead of the fresh
    // batch (FIFO fairness: the oldest failure gets the first slot).
    // They re-enter standalone — their relationship groups dissolved
    // when they were compacted out.
    for (RetryEntry& entry : retries.pop_due(w)) {
      live.vms.push_back(std::move(entry.vm));
      live_placement.genes().push_back(Placement::kRejected);
      attempts.push_back(entry.attempts);
      extend_front(1);
      ++row.retried;
    }
    telemetry::count(telemetry::Counter::kSimRetries, row.retried);

    // Arrivals: a fresh batch with its own relationship groups, counted
    // either by the explicit schedule (trace-driven) or Poisson.
    const std::size_t arrivals = window_arrivals(config_, w, rng);
    row.arrived = arrivals;
    const auto append_request_set = [&](RequestSet&& set) {
      const auto offset = static_cast<std::uint32_t>(live.vms.size());
      const std::size_t count = set.vms.size();
      for (VmRequest& vm : set.vms) {
        live.vms.push_back(std::move(vm));
        live_placement.genes().push_back(Placement::kRejected);
        attempts.push_back(0);
      }
      extend_front(count);
      for (PlacementConstraint& c : set.constraints) {
        for (std::uint32_t& k : c.vms) {
          k += offset;
        }
        live.constraints.push_back(std::move(c));
      }
    };
    if (config_.max_admissions_per_window == 0) {
      if (arrivals > 0) {
        append_request_set(generator.generate_requests(
            infra, static_cast<std::uint32_t>(arrivals), rng.next_u64()));
      }
    } else {
      // Admission control: the batch enters the FIFO backlog as whole
      // relationship units (a unit is never split across windows), then
      // at most max_admissions_per_window VMs move into the live set.
      // An oversized unit is admitted alone from the queue front, so
      // nothing can starve.
      const std::size_t backlog_before = admission_backlog;
      std::size_t enqueued = 0;
      if (arrivals > 0) {
        RequestSet batch = generator.generate_requests(
            infra, static_cast<std::uint32_t>(arrivals), rng.next_u64());
        const std::vector<std::vector<std::uint32_t>> units =
            assignment_units(batch);
        // accepted[u] indexes the AdmissionUnit a batch unit became;
        // local_of remaps batch VM indices into their unit.
        std::vector<std::int32_t> accepted(units.size(), -1);
        std::vector<std::uint32_t> local_of(batch.vms.size(), 0);
        std::vector<std::int32_t> unit_of(batch.vms.size(), -1);
        std::vector<AdmissionUnit> fresh;
        for (std::size_t u = 0; u < units.size(); ++u) {
          if (config_.admission_queue_limit > 0 &&
              admission_backlog + units[u].size() >
                  config_.admission_queue_limit) {
            row.admission_dropped += units[u].size();
            continue;
          }
          accepted[u] = static_cast<std::int32_t>(fresh.size());
          AdmissionUnit& pending = fresh.emplace_back();
          pending.vms.reserve(units[u].size());
          for (const std::uint32_t k : units[u]) {
            unit_of[k] = static_cast<std::int32_t>(u);
            local_of[k] = static_cast<std::uint32_t>(pending.vms.size());
            pending.vms.push_back(std::move(batch.vms[k]));
          }
          admission_backlog += units[u].size();
          enqueued += units[u].size();
        }
        // Units are constraint-closed, so each constraint belongs
        // entirely to one unit (dropped units shed their constraints).
        for (PlacementConstraint& c : batch.constraints) {
          const std::int32_t u = unit_of[c.vms.front()];
          if (u < 0) {
            continue;
          }
          for (std::uint32_t& k : c.vms) {
            k = local_of[k];
          }
          const auto slot = static_cast<std::size_t>(
              accepted[static_cast<std::size_t>(u)]);
          fresh[slot].constraints.push_back(std::move(c));
        }
        for (AdmissionUnit& pending : fresh) {
          admission_queue.push_back(std::move(pending));
        }
      }
      std::size_t admitted = 0;
      while (!admission_queue.empty()) {
        const std::size_t unit_size = admission_queue.front().vms.size();
        if (admitted != 0 &&
            admitted + unit_size > config_.max_admissions_per_window) {
          break;
        }
        AdmissionUnit unit = std::move(admission_queue.front());
        admission_queue.pop_front();
        admission_backlog -= unit_size;
        RequestSet set;
        set.vms = std::move(unit.vms);
        set.constraints = std::move(unit.constraints);
        append_request_set(std::move(set));
        admitted += unit_size;
      }
      row.admitted = admitted;
      // FIFO: older backlog admits first, so the part of this window's
      // batch that did not make it in was deferred.
      const std::size_t admitted_from_new =
          admitted > backlog_before ? admitted - backlog_before : 0;
      row.admission_deferred = enqueued - admitted_from_new;
      telemetry::count(telemetry::Counter::kSimAdmissionDeferrals,
                       row.admission_deferred);
      telemetry::count(telemetry::Counter::kSimAdmissionDrops,
                       row.admission_dropped);
    }
    row.admission_queue_depth = admission_backlog;

    if (live.vms.empty()) {
      row.retry_queue_depth = retries.size();
      metrics.push_back(row);
      if (window_sink_) {
        window_sink_(metrics.back());
      }
      if (!window_counters.empty()) {
        telemetry::Registry::global().flush_counters(window_counters);
      }
      continue;
    }

    // Down servers keep their identity but lose their capacity for this
    // window, so the allocator is forced to evacuate them (and pays
    // Eq. 26 for every displaced VM it saves).
    Infrastructure window_infra = infra;
    if (fault_model.down_count() > 0) {
      std::vector<Server> servers = infra.servers();
      for (std::size_t j = 0; j < servers.size(); ++j) {
        if (fault_model.is_down(static_cast<std::uint32_t>(j))) {
          for (double& f : servers[j].factor) {
            f = 1e-9;  // effective capacity ~ 0: nothing can stay
          }
        }
      }
      window_infra =
          Infrastructure(infra.fabric().config(), std::move(servers));
      for (std::size_t k = 0; k < live.vms.size(); ++k) {
        if (live_placement.is_assigned(k) &&
            fault_model.is_down(static_cast<std::uint32_t>(
                live_placement.server_of(k)))) {
          ++row.displaced_vms;
        }
      }
    }

    // One allocation round over everything that should be running.
    Instance instance(std::move(window_infra), live);
    instance.previous = live_placement;

    // Drawn before the attempt so primary and fallback see the same
    // seed whether or not the primary completes.
    const std::uint64_t window_seed = rng.next_u64();

    // Hand the carried front to the allocator (EA family consumes it and
    // arms front export; others decline — the copy keeps our carry
    // intact in case the window degrades to the fallback).
    if (config_.warm_start_front) {
      allocator_->seed_next_run(carried_front);
    }

    Stopwatch timer;
    AllocationResult result;
    bool primary_failed = false;
    try {
      telemetry::ScopedPhaseTimer phase(telemetry::Phase::kAllocate);
      result = allocator_->allocate(instance, window_seed);
    } catch (const std::exception&) {
      // The primary blew up mid-window (the paper's algorithms share an
      // engine, but a pluggable Allocator is arbitrary code).  The
      // window is served by the greedy fallback instead of stalling the
      // horizon.  (IAAS_EXPECT aborts the process by design and is not
      // recoverable here.)
      primary_failed = true;
    }
    const double primary_seconds = timer.elapsed_seconds();
    const bool hard_overrun =
        !primary_failed && config_.allocator_deadline_seconds > 0.0 &&
        config_.deadline_hard_factor > 0.0 &&
        primary_seconds > config_.allocator_deadline_seconds *
                              config_.deadline_hard_factor;
    if (primary_failed || hard_overrun) {
      telemetry::ScopedPhaseTimer phase(telemetry::Phase::kFallbackAllocate);
      result = fallback_allocator().allocate(instance, window_seed);
      row.degrade = DegradeLevel::kFallback;
      row.fallback_algorithm = fallback_allocator().name();
    } else if (result.deadline_hit) {
      // Anytime truncation: the EA stopped at a generation boundary and
      // handed over its best front so far.
      row.degrade = DegradeLevel::kBestEffort;
    }
    if (row.degrade != DegradeLevel::kNone) {
      telemetry::count(telemetry::Counter::kSimDegradedWindows);
    }
    row.solve_seconds = timer.elapsed_seconds();
    // Per-window decision trace of the allocator (empty unless the
    // allocator collects one — see NsgaConfig::collect_trace).
    row.allocator_trace = std::move(result.trace);
    if (!row.allocator_trace.empty()) {
      row.allocator_trace.label += " w" + std::to_string(w);
    }
    if (config_.warm_start_front && !result.front_genes.empty()) {
      // Adopt the fresh front (aligned with this window's instance); a
      // degraded window exports none and the previous carry — still
      // aligned — survives.
      carried_front = std::move(result.front_genes);
    }

    const ReconfigurationPlan plan =
        make_plan(instance, live_placement, result.placement);
    row.boots = plan.boots();
    row.migrations = plan.migrations();
    row.migration_cost = plan.migration_cost();
    row.rejected = result.rejected;
    row.objectives = result.objectives;
    row.shard = result.shard;

    // Fairness/welfare columns, scored on the full window instance (so
    // rejected VMs count against their consumer) before compaction.
    if (track_fairness) {
      const FairnessReport fair =
          compute_fairness(instance, result.placement, config_.fairness);
      row.fairness.consumers = fair.consumers.size();
      row.fairness.strategic_consumers = fair.strategic_consumers;
      row.fairness.strategic_vms = fair.strategic_vms;
      row.fairness.jain_index = fair.jain;
      row.fairness.envy = fair.envy;
      row.fairness.utilization_efficiency = fair.utilization_efficiency;
      row.fairness.honest_welfare = fair.honest_welfare;
      row.fairness.strategic_welfare = fair.strategic_welfare;
      row.fairness.energy_cost = fair.energy_cost;
      std::vector<double> long_term;
      for (const ConsumerShare& share : fair.consumers) {
        cumulative_share[share.consumer] += share.served;
        consumer_seen[share.consumer] = 1;
      }
      for (std::size_t c = 0; c < cumulative_share.size(); ++c) {
        if (consumer_seen[c]) {
          long_term.push_back(cumulative_share[c]);
        }
      }
      row.fairness.long_term_jain = jain_index(long_term);
    }

    // Apply: rejected VMs leave the platform — into the retry queue
    // while their attempt budget lasts, permanently otherwise.  A VM
    // that was running last window counts as evicted.
    live_placement = result.placement;
    std::vector<char> keep(live.vms.size(), 1);
    bool any_drop = false;
    for (std::size_t k = 0; k < live.vms.size(); ++k) {
      if (live_placement.is_assigned(k)) {
        continue;
      }
      keep[k] = 0;
      any_drop = true;
      if (instance.previous.is_assigned(k)) {
        ++row.evicted;
      }
      if (!retries.offer(live.vms[k], attempts[k] + 1, w)) {
        ++row.permanently_rejected;
      }
    }
    telemetry::count(telemetry::Counter::kSimEvictions, row.evicted);
    telemetry::count(telemetry::Counter::kSimPermanentRejections,
                     row.permanently_rejected);
    if (any_drop) {
      compact_requests(live, live_placement, keep);
      compact_parallel(attempts, keep);
      compact_front(keep);
    }
    row.running = live.vms.size();
    row.retry_queue_depth = retries.size();
    // The degradation contract: whatever served the window, nothing may
    // be left hosted on a dead server.
    for (std::size_t k = 0; k < live.vms.size(); ++k) {
      if (fault_model.is_down(
              static_cast<std::uint32_t>(live_placement.server_of(k)))) {
        ++row.vms_on_down_servers;
      }
    }
    metrics.push_back(row);
    if (window_sink_) {
      window_sink_(metrics.back());
    }
    if (!window_counters.empty()) {
      telemetry::Registry::global().flush_counters(window_counters);
    }
  }
  return metrics;
}

}  // namespace iaas
