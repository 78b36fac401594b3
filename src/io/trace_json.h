// JSON codec of the trace structs (DESIGN.md §13).  The emitter and the
// parser are each one visitor over the field lists (common/fields), so
// emit -> parse -> re-emit is byte-identical by construction: a run
// trace is {"label", "seed", "columns", "rows"} with positional rows in
// RunTrace::columns() order, a window is one object of its fields, and
// a sim trace is {"windows": [...]}.  Lives in io (not common) because
// iaas_common cannot depend on the Json layer.
#pragma once

#include <string>
#include <vector>

#include "common/telemetry.h"
#include "io/emit.h"
#include "io/json.h"
#include "sim/simulator.h"

namespace iaas {

void emit_run_trace(JsonEmitter& emitter, const telemetry::RunTrace& trace);
void emit_window_metrics(JsonEmitter& emitter, const WindowMetrics& row);

// Inverses of the emitters.  Shape errors (missing keys, short rows,
// unknown columns or enum names, integers overflowing their field)
// throw std::runtime_error.  Seeds and counters are integer lexemes, so
// the full 64-bit range round-trips exactly.
telemetry::RunTrace trace_from_json(const Json& json);
std::vector<WindowMetrics> sim_trace_from_json(const Json& json);

// The repo's canonical trace files — pretty indent 2 plus a trailing
// newline, streamed without a Json tree; they fail loudly (IAAS_EXPECT)
// on an unopenable path or a failed write, like common/csv.
void write_trace_json(const telemetry::RunTrace& trace,
                      const std::string& path);

}  // namespace iaas
