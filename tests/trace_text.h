// Canonical trace JSON text in memory: the bytes write_sim_trace_json and
// write_trace_json put in a file (pretty indent 2, trailing newline).
#pragma once

#include <string>
#include <vector>

#include "io/emit.h"
#include "io/trace_json.h"

namespace iaas::test {

inline std::string sim_trace_text(const std::vector<WindowMetrics>& rows) {
  std::string out;
  JsonEmitter e(out, 2);
  e.begin_object();
  e.key("windows");
  e.begin_array();
  for (const WindowMetrics& row : rows) {
    emit_window_metrics(e, row);
  }
  e.end_array();
  e.end_object();
  out += '\n';
  return out;
}

inline std::string run_trace_text(const telemetry::RunTrace& trace) {
  std::string out;
  JsonEmitter e(out, 2);
  emit_run_trace(e, trace);
  out += '\n';
  return out;
}

}  // namespace iaas::test
