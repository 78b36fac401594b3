#include "common/telemetry.h"

#include <cstdio>

#include "common/csv.h"

namespace iaas::telemetry {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kEvaluations:
      return "evaluations";
    case Counter::kStateRebuilds:
      return "state_rebuilds";
    case Counter::kDeltaMoves:
      return "delta_moves";
    case Counter::kStateRebases:
      return "state_rebases";
    case Counter::kRepairInvocations:
      return "repair_invocations";
    case Counter::kRepairedIndividuals:
      return "repaired_individuals";
    case Counter::kUnrepairableIndividuals:
      return "unrepairable_individuals";
    case Counter::kTabuMovesTried:
      return "tabu_moves_tried";
    case Counter::kTabuMovesAccepted:
      return "tabu_moves_accepted";
    case Counter::kSimFaultEvents:
      return "sim_fault_events";
    case Counter::kSimEvictions:
      return "sim_evictions";
    case Counter::kSimRetries:
      return "sim_retries";
    case Counter::kSimPermanentRejections:
      return "sim_permanent_rejections";
    case Counter::kSimDegradedWindows:
      return "sim_degraded_windows";
    case Counter::kShardPreRejections:
      return "shard_pre_rejections";
    case Counter::kShardRebalancePlacements:
      return "shard_rebalance_placements";
    case Counter::kShardMigrations:
      return "shard_migrations";
    case Counter::kSimAdmissionDeferrals:
      return "sim_admission_deferrals";
    case Counter::kSimAdmissionDrops:
      return "sim_admission_drops";
    case Counter::kTraceWindowsStreamed:
      return "trace_windows_streamed";
    case Counter::kTraceBytesStreamed:
      return "trace_bytes_streamed";
    case Counter::kTracePeakBufferBytes:
      return "trace_peak_buffer_bytes";
    case Counter::kCount:
      break;
  }
  return "unknown";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kTournament:
      return "tournament";
    case Phase::kVariation:
      return "variation";
    case Phase::kRepair:
      return "repair";
    case Phase::kEvaluate:
      return "evaluate";
    case Phase::kSelection:
      return "selection";
    case Phase::kAllocate:
      return "allocate";
    case Phase::kFallbackAllocate:
      return "fallback_allocate";
    case Phase::kSimWindow:
      return "sim_window";
    case Phase::kCount:
      break;
  }
  return "unknown";
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

void Registry::flush_counters(const CounterBlock& block) {
  std::lock_guard lock(mutex_);
  counters_.merge(block);
}

void Registry::add_phase_seconds(Phase p, double seconds) {
  std::lock_guard lock(mutex_);
  seconds_[static_cast<std::size_t>(p)] += seconds;
}

CounterBlock Registry::counters() const {
  std::lock_guard lock(mutex_);
  return counters_;
}

std::array<double, kPhaseCount> Registry::phase_seconds() const {
  std::lock_guard lock(mutex_);
  return seconds_;
}

void Registry::reset() {
  std::lock_guard lock(mutex_);
  counters_.reset();
  seconds_.fill(0.0);
}

#if IAAS_TELEMETRY

namespace {
thread_local CounterBlock* t_sink = nullptr;
}  // namespace

void count(Counter c, std::uint64_t n) {
  if (t_sink != nullptr) {
    (*t_sink)[c] += n;
  }
}

ScopedSink::ScopedSink(CounterBlock& block) : previous_(t_sink) {
  t_sink = &block;
}

ScopedSink::~ScopedSink() { t_sink = previous_; }

#endif  // IAAS_TELEMETRY

namespace {

// One CSV row: the GenerationRow field list's keys and formatted values.
struct Cells {
  std::vector<std::string> keys;
  std::vector<std::string> values;
  void leaf(const char* key, std::size_t v, fields::Tag) {
    keys.emplace_back(key);
    values.push_back(std::to_string(v));
  }
  void leaf(const char* key, double v, fields::Tag) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.9g", v);
    keys.emplace_back(key);
    values.emplace_back(buffer);
  }
};

}  // namespace

const std::vector<std::string>& RunTrace::columns() {
  static const std::vector<std::string> kColumns = [] {
    Cells cells;
    const GenerationRow probe;
    visit_fields(probe, cells);
    return cells.keys;
  }();
  return kColumns;
}

std::vector<std::string> RunTrace::row_values(const GenerationRow& row) {
  Cells cells;
  visit_fields(row, cells);
  return cells.values;
}

void RunTrace::write_csv(const std::string& path) const {
  CsvWriter csv(path, columns());
  for (const GenerationRow& row : rows) {
    csv.add_row(row_values(row));
  }
  csv.close();
}

}  // namespace iaas::telemetry
