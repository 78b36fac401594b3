#include "common/telemetry.h"

#include <cstdio>

#include "common/csv.h"

namespace iaas::telemetry {

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
