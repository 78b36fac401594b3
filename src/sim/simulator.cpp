#include "sim/simulator.h"

#include <bit>
#include <cmath>
#include <deque>
#include <utility>

#include "algo/heuristics.h"
#include "common/expect.h"
#include "model/assignment_units.h"
#include "model/fairness.h"

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
  IAAS_EXPECT(std::isfinite(mean), "poisson mean must be finite");
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

std::size_t window_arrivals(const std::vector<std::size_t>& schedule,
                            double mean, std::size_t window, Rng& rng) {
  if (!schedule.empty()) {
    return schedule[window % schedule.size()];
  }
  return poisson_sample(mean, rng);
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
      fallback_(fallback != nullptr
                    ? std::move(fallback)
                    : std::make_unique<FirstFitDecreasingAllocator>()) {
  IAAS_EXPECT(allocator_ != nullptr, "simulator needs an allocator");
  IAAS_EXPECT(std::isfinite(config_.arrivals_per_window_mean) &&
                  config_.arrivals_per_window_mean >= 0.0,
              "arrivals_per_window_mean must be finite and non-negative");
  IAAS_EXPECT(config_.departure_probability >= 0.0 &&
                  config_.departure_probability <= 1.0,
              "departure_probability must lie in [0, 1]");
  // 0 means no deadline; a NaN fails the compares too, where it would
  // silently mean the same.
  IAAS_EXPECT(config_.allocator_deadline_seconds >= 0.0,
              "allocator_deadline_seconds must be non-negative");
  IAAS_EXPECT(config_.deadline_hard_factor >= 0.0,
              "deadline_hard_factor must be non-negative");
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
  const SolvePolicy policy{config_.warm_start_front,
                           config_.allocator_deadline_seconds,
                           config_.deadline_hard_factor};

  Fleet fleet;  // every VM that should be running
  // Admission backlog (max_admissions_per_window > 0): whole relationship
  // units waiting to enter the fleet, FIFO in arrival order, each with
  // unit-local constraint indices.
  std::deque<RequestSet> admission_queue;
  std::size_t admission_backlog = 0;  // VMs across admission_queue

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
    row.failed_servers = fault_model.down_count();
    row.decommissioned_servers = fault_model.decommissioned_count();

    row.departed = fleet.depart(config_.departure_probability, rng);

    // Queued rejects whose backoff elapsed re-enter ahead of the fresh
    // batch (FIFO fairness: the oldest failure gets the first slot).
    // They re-enter standalone — their relationship groups dissolved
    // when they were compacted out.
    for (RetryEntry& entry : retries.pop_due(w)) {
      fleet.append(std::move(entry.vm), entry.attempts);
      ++row.retried;
    }

    // Arrivals: a fresh batch with its own relationship groups, counted
    // either by the explicit schedule (trace-driven) or Poisson.
    const std::size_t arrivals = window_arrivals(
        config_.arrival_schedule, config_.arrivals_per_window_mean, w, rng);
    row.arrived = arrivals;
    if (config_.max_admissions_per_window == 0) {
      if (arrivals > 0) {
        fleet.append(generator.generate_requests(
            infra, static_cast<std::uint32_t>(arrivals), rng.next_u64()));
      }
    } else {
      // Admission control: the batch enters the FIFO backlog as whole
      // relationship units (a unit is never split across windows), then
      // at most max_admissions_per_window VMs move into the fleet.
      // An oversized unit is admitted alone from the queue front, so
      // nothing can starve.
      const std::size_t backlog_before = admission_backlog;
      std::size_t enqueued = 0;
      if (arrivals > 0) {
        for (RequestSet& unit : split_units(generator.generate_requests(
                 infra, static_cast<std::uint32_t>(arrivals),
                 rng.next_u64()))) {
          const std::size_t unit_size = unit.vm_count();
          if (config_.admission_queue_limit > 0 &&
              admission_backlog + unit_size > config_.admission_queue_limit) {
            row.admission_dropped += unit_size;
            continue;
          }
          admission_backlog += unit_size;
          enqueued += unit_size;
          admission_queue.push_back(std::move(unit));
        }
      }
      std::size_t admitted = 0;
      while (!admission_queue.empty()) {
        const std::size_t unit_size = admission_queue.front().vm_count();
        if (admitted != 0 &&
            admitted + unit_size > config_.max_admissions_per_window) {
          break;
        }
        fleet.append(std::move(admission_queue.front()));
        admission_queue.pop_front();
        admission_backlog -= unit_size;
        admitted += unit_size;
      }
      row.admitted = admitted;
      // FIFO: older backlog admits first, so the part of this window's
      // batch that did not make it in was deferred.
      const std::size_t admitted_from_new =
          admitted > backlog_before ? admitted - backlog_before : 0;
      row.admission_deferred = enqueued - admitted_from_new;
    }
    row.admission_queue_depth = admission_backlog;

    if (!fleet.empty()) {
      // One allocation round over everything that should be running.
      // The seed is drawn only for a window that solves.
      FleetSolve step = solve_fleet(fleet, infra, fault_model, *allocator_,
                                    *fallback_, rng.next_u64(), policy);
      row.displaced_vms = step.displaced;
      row.degrade = step.degrade;
      if (step.degrade == DegradeLevel::kFallback) {
        row.fallback_algorithm = fallback_->name();
      }
      row.solve_seconds = step.seconds;
      // Per-window decision trace of the allocator (empty unless the
      // allocator collects one — see NsgaConfig::collect_trace).
      row.allocator_trace = std::move(step.result.trace);
      if (!row.allocator_trace.empty()) {
        row.allocator_trace.label += " w" + std::to_string(w);
      }
      row.boots = step.plan.boots();
      row.migrations = step.plan.migrations();
      row.migration_cost = step.plan.migration_cost();
      row.rejected = step.result.rejected;
      row.objectives = step.result.objectives;
      row.shard = step.result.shard;

      // Fairness/welfare columns, scored on the full window instance (so
      // rejected VMs count against their consumer) before compaction.
      if (track_fairness) {
        const FairnessReport fair =
            compute_fairness(step.instance, step.result.placement);
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
      // while their attempt budget lasts, permanently otherwise.
      const Settled settled = settle_fleet(
          fleet, std::move(step.result.placement), retries, w);
      row.evicted = settled.evicted;
      row.permanently_rejected = settled.permanently_rejected;
    }
    row.running = fleet.size();
    row.retry_queue_depth = retries.size();
    // The degradation contract: whatever served the window, nothing may
    // be left hosted on a dead server.
    for (std::size_t k = 0; k < fleet.size(); ++k) {
      if (fault_model.is_down(
              static_cast<std::uint32_t>(fleet.placement.server_of(k)))) {
        ++row.vms_on_down_servers;
      }
    }
    metrics.push_back(std::move(row));
    if (window_sink_) {
      window_sink_(metrics.back());
    }
  }
  return metrics;
}

}  // namespace iaas
