// Telemetry subsystem (common/telemetry + io/trace_json): counter sinks,
// run-trace emitters, and the CsvWriter failure contract the trace CSVs
// rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "common/csv.h"
#include "common/telemetry.h"
#include "io/trace_json.h"
#include "tests/trace_text.h"

namespace iaas {
namespace {

using telemetry::Counter;
using telemetry::CounterBlock;
using telemetry::GenerationRow;
using telemetry::RunTrace;
using telemetry::ScopedSink;
using telemetry::ScopedTimer;

#if IAAS_TELEMETRY

TEST(ScopedSink, CapturesAndRestores) {
  telemetry::count(Counter::kStateRebuilds);  // no sink: dropped, no crash

  CounterBlock outer;
  CounterBlock inner;
  {
    ScopedSink sink(outer);
    telemetry::count(Counter::kStateRebuilds);
    {
      ScopedSink nested(inner);
      telemetry::count(Counter::kStateRebuilds, 4);
    }
    // Nested sink restored: this lands in `outer` again.
    telemetry::count(Counter::kDeltaMoves, 2);
  }
  // Both sinks removed: this lands in neither block.
  telemetry::count(Counter::kStateRebuilds, 8);
  EXPECT_EQ(inner[Counter::kStateRebuilds], 4u);
  EXPECT_EQ(inner[Counter::kDeltaMoves], 0u);
  EXPECT_EQ(outer[Counter::kStateRebuilds], 1u);
  EXPECT_EQ(outer[Counter::kDeltaMoves], 2u);
}

#endif  // IAAS_TELEMETRY

TEST(ScopedTimer, NullTargetIsDisabled) {
  double elapsed = 0.0;
  {
    ScopedTimer off(nullptr);  // must not touch anything
    ScopedTimer on(&elapsed);
  }
  EXPECT_GE(elapsed, 0.0);
}

RunTrace sample_trace() {
  RunTrace trace;
  trace.label = "unit";
  trace.seed = 42;
  GenerationRow row;
  row.generation = 0;
  row.evaluations = 10;
  row.full_rebuilds = 11;
  row.delta_moves = 12;
  row.rebases = 5;
  row.repair_invocations = 13;
  row.repaired = 6;
  row.unrepairable = 7;
  row.tabu_moves_tried = 20;
  row.tabu_moves_accepted = 15;
  row.front_size = 4;
  row.best_objectives = {1.5, 2.5, 3.5};
  trace.rows.push_back(row);
  row.generation = 1;
  row.evaluations = 20;
  trace.rows.push_back(row);
  return trace;
}

TEST(RunTrace, ColumnArity) {
  const RunTrace trace = sample_trace();
  EXPECT_EQ(RunTrace::row_values(trace.rows[0]).size(),
            RunTrace::columns().size());
}

TEST(RunTrace, CsvRoundTrip) {
  const RunTrace trace = sample_trace();
  const std::string path = "/tmp/iaas_test_trace.csv";
  trace.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_NE(line.find("generation,evaluations"), std::string::npos);
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    ++rows;
  }
  EXPECT_EQ(rows, trace.rows.size());
  std::filesystem::remove(path);
}

TEST(TraceJson, StructureMatchesColumns) {
  const RunTrace trace = sample_trace();
  const Json doc = Json::parse(test::run_trace_text(trace));
  EXPECT_EQ(doc.at("label").as_string(), "unit");
  EXPECT_EQ(doc.at("seed").as_number(), 42.0);
  EXPECT_EQ(doc.at("columns").size(), RunTrace::columns().size());
  EXPECT_EQ(doc.at("rows").size(), 2u);
  EXPECT_EQ(doc.at("rows").at(0).size(), RunTrace::columns().size());
  // generation / evaluations land in the right slots.
  EXPECT_EQ(doc.at("rows").at(1).at(0).as_number(), 1.0);
  EXPECT_EQ(doc.at("rows").at(1).at(1).as_number(), 20.0);
  // Round-trips through the parser.
  EXPECT_EQ(test::run_trace_text(trace_from_json(doc)),
            test::run_trace_text(trace));
}

TEST(TraceJson, FileEmitterParses) {
  const std::string path = "/tmp/iaas_test_trace.json";
  write_trace_json(sample_trace(), path);
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Json doc = Json::parse(buffer.str());
  EXPECT_EQ(doc.at("rows").size(), 2u);
  std::filesystem::remove(path);
}

using TelemetryDeathTest = ::testing::Test;

TEST(TelemetryDeathTest, CsvWriterAbortsOnUnopenablePath) {
  EXPECT_DEATH(
      { CsvWriter csv("/nonexistent_dir_iaas/out.csv", {"a"}); },
      "cannot open");
}

TEST(TelemetryDeathTest, CsvWriterAbortsOnWriteErrorAtClose) {
  // /dev/full accepts the open but fails every flush — the classic
  // disk-full simulation.  Skip where the device is unavailable.
  if (::access("/dev/full", W_OK) != 0) {
    GTEST_SKIP() << "/dev/full not available";
  }
  EXPECT_DEATH(
      {
        CsvWriter csv("/dev/full", {"a", "b"});
        for (int i = 0; i < 100000; ++i) {
          csv.add_row({"x", "y"});  // overflow the stream buffer
        }
        csv.close();
      },
      "write error");
}

TEST(TelemetryDeathTest, TraceJsonAbortsOnUnopenablePath) {
  EXPECT_DEATH(write_trace_json(sample_trace(),
                                "/nonexistent_dir_iaas/trace.json"),
               "cannot open");
}

}  // namespace
}  // namespace iaas
