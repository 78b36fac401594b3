// Lossless binary <-> JSON trace converter and round-trip checker.
//
//   trace_convert <in> <out>
//       Direction is sniffed from <in>: a binary trace (magic
//       "IAASTRCB") is expanded to the canonical pretty JSON; a JSON
//       trace (sim trace {"windows": [...]} or run trace
//       {label,seed,columns,rows}) is packed to binary.
//
//   trace_convert --check <dir-or-file>...
//       For every trace JSON found: parse -> structs -> binary ->
//       reload -> re-emit JSON, and require (a) the re-emitted text to
//       be byte-identical to the input file, (b) for sim traces the
//       deterministic fingerprint to survive the binary round trip, and
//       (c) the binary to equal a committed twin <stem>.trc beside the
//       input, if there is one.  Non-trace JSON (bench roll-ups) is
//       skipped; finding zero traces is a failure (an empty directory
//       must not pass as "validated").  This
//       is the ctest step between trace_emit_* and trace_validate, and
//       the check on the golden fixtures in tests/data/traces.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "io/emit.h"
#include "io/json.h"
#include "io/trace_binary.h"
#include "io/trace_json.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"

namespace {

using namespace iaas;

std::string load_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

enum class JsonTraceKind { kNotATrace, kRunTrace, kSimTrace };

// Shape sniff on a parsed document.  BENCH roll-ups may carry a numeric
// "windows" key, so the value's type is part of the test.
JsonTraceKind json_trace_kind(const Json& doc) {
  if (doc.type() != Json::Type::kObject) {
    return JsonTraceKind::kNotATrace;
  }
  if (doc.contains("windows") &&
      doc.at("windows").type() == Json::Type::kArray) {
    return JsonTraceKind::kSimTrace;
  }
  if (doc.contains("rows") && doc.contains("columns") &&
      doc.contains("seed")) {
    return JsonTraceKind::kRunTrace;
  }
  return JsonTraceKind::kNotATrace;
}

// Canonical JSON text of a sim/run trace: streaming emitter, pretty
// indent 2, trailing newline — exactly what the file writers produce.
std::string sim_trace_text(const std::vector<WindowMetrics>& rows) {
  std::string out;
  JsonEmitter emitter(out, 2);
  emitter.begin_object();
  emitter.key("windows");
  emitter.begin_array();
  for (const WindowMetrics& row : rows) {
    emit_window_metrics(emitter, row);
  }
  emitter.end_array();
  emitter.end_object();
  out += '\n';
  return out;
}

std::string run_trace_text(const telemetry::RunTrace& trace) {
  std::string out;
  JsonEmitter emitter(out, 2);
  emit_run_trace(emitter, trace);
  out += '\n';
  return out;
}

int convert(const std::string& in_path, const std::string& out_path) {
  if (is_binary_trace_file(in_path)) {
    if (binary_trace_kind(in_path) == BinaryTraceKind::kSimTrace) {
      write_sim_trace_json(read_binary_sim_trace(in_path), out_path);
    } else {
      write_trace_json(read_binary_run_trace(in_path), out_path);
    }
    std::printf("binary -> json  %s -> %s\n", in_path.c_str(),
                out_path.c_str());
    return 0;
  }
  const Json doc = Json::parse(load_text(in_path));
  switch (json_trace_kind(doc)) {
    case JsonTraceKind::kSimTrace:
      write_binary_sim_trace(sim_trace_from_json(doc), out_path);
      break;
    case JsonTraceKind::kRunTrace:
      write_binary_run_trace(trace_from_json(doc), out_path);
      break;
    case JsonTraceKind::kNotATrace:
      std::fprintf(stderr, "%s: not a trace file\n", in_path.c_str());
      return 1;
  }
  std::printf("json -> binary  %s -> %s\n", in_path.c_str(),
              out_path.c_str());
  return 0;
}

// Returns 1 if the file round-tripped as a trace, 0 if skipped; flags
// `failed` on any mismatch.
int check_file(const std::string& path, bool& failed) {
  std::string text;
  Json doc;
  try {
    text = load_text(path);
    doc = Json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    failed = true;
    return 0;
  }
  const JsonTraceKind kind = json_trace_kind(doc);
  if (kind == JsonTraceKind::kNotATrace) {
    std::printf("skip      %s (not a trace)\n", path.c_str());
    return 0;
  }
  // The round trip's binary goes to the temp directory, never beside the
  // input: the golden fixtures live in the source tree.
  const std::filesystem::path source(path);
  const std::string binary_path =
      (std::filesystem::temp_directory_path() /
       (source.filename().string() + "." + std::to_string(::getpid()) +
        ".trc"))
          .string();
  std::filesystem::path twin = source;
  twin.replace_extension(".trc");
  try {
    std::string reemitted;
    bool fingerprint_ok = true;
    if (kind == JsonTraceKind::kSimTrace) {
      const std::vector<WindowMetrics> rows = sim_trace_from_json(doc);
      write_binary_sim_trace(rows, binary_path);
      const std::vector<WindowMetrics> reloaded =
          read_binary_sim_trace(binary_path);
      fingerprint_ok = deterministic_fingerprint(reloaded) ==
                       deterministic_fingerprint(rows);
      reemitted = sim_trace_text(reloaded);
    } else {
      const telemetry::RunTrace trace = trace_from_json(doc);
      write_binary_run_trace(trace, binary_path);
      reemitted = run_trace_text(read_binary_run_trace(binary_path));
    }
    const bool twin_ok = !std::filesystem::exists(twin) ||
                         load_text(twin.string()) == load_text(binary_path);
    std::filesystem::remove(binary_path);
    if (!twin_ok) {
      std::fprintf(stderr, "%s: binary differs from %s\n", path.c_str(),
                   twin.string().c_str());
      failed = true;
      return 1;
    }
    if (!fingerprint_ok) {
      std::fprintf(stderr, "%s: fingerprint changed across binary round "
                           "trip\n",
                   path.c_str());
      failed = true;
      return 1;
    }
    if (reemitted != text) {
      std::fprintf(stderr,
                   "%s: binary round trip is not byte-identical "
                   "(%zu vs %zu bytes)\n",
                   path.c_str(), reemitted.size(), text.size());
      failed = true;
      return 1;
    }
    std::printf("roundtrip %s (%zu bytes)\n", path.c_str(), text.size());
    return 1;
  } catch (const std::exception& e) {
    std::filesystem::remove(binary_path);
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    failed = true;
    return 1;
  }
}

int check(const std::vector<std::string>& args) {
  bool failed = false;
  int traces = 0;
  for (const std::string& arg : args) {
    const std::filesystem::path p(arg);
    if (std::filesystem::is_directory(p)) {
      for (const auto& entry : std::filesystem::directory_iterator(p)) {
        if (entry.path().extension() == ".json") {
          traces += check_file(entry.path().string(), failed);
        }
      }
    } else {
      traces += check_file(p.string(), failed);
    }
  }
  if (traces == 0) {
    std::fprintf(stderr, "no trace JSON found to round-trip\n");
    return 1;
  }
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && std::strcmp(argv[1], "--check") == 0) {
      return check(std::vector<std::string>(argv + 2, argv + argc));
    }
    if (argc == 3) {
      return convert(argv[1], argv[2]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_convert: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: trace_convert <in> <out>\n"
               "       trace_convert --check <dir-or-json>...\n");
  return 2;
}
