// Incremental sim-trace writers (DESIGN.md §13).  The simulators hand
// a writer one WindowMetrics at a time (via set_window_sink) and it
// drains each window straight to disk, so a million-window run holds
// one window of trace text in memory instead of the whole horizon.  One
// TraceWriter serves both formats: SimTraceWriter writes the JSON
// document {"windows": [...]}, BinaryTraceWriter (io/trace_binary) the
// binary one.  Each writer reports what it wrote through its own
// accessors (windows, bytes, peak buffer).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "io/emit.h"
#include "io/trace_json.h"
#include "sim/simulator.h"

namespace iaas {

// Buffered FILE* sink with common/csv failure rules: unopenable paths
// and write errors abort via IAAS_EXPECT instead of silently truncating
// a results file.
class JsonFileSink {
 public:
  explicit JsonFileSink(const std::string& path);
  ~JsonFileSink();
  JsonFileSink(const JsonFileSink&) = delete;
  JsonFileSink& operator=(const JsonFileSink&) = delete;

  void write(std::string_view chunk);
  void flush();  // fflush — makes partial traces visible mid-run
  void close();  // idempotent; checks the final flush

  [[nodiscard]] std::size_t bytes_written() const { return bytes_written_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::size_t bytes_written_ = 0;
};

// append() encodes one window and drains it to disk; finish() closes the
// document (the JSON form ends with a newline).
class TraceWriter {
 public:
  enum class Format : std::uint8_t { kJson, kBinary };

  TraceWriter(const std::string& path, Format format, int indent);
  ~TraceWriter();  // finishes if the caller forgot
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const WindowMetrics& row);
  void finish();

  [[nodiscard]] std::size_t windows_written() const { return windows_; }
  [[nodiscard]] std::size_t bytes_written() const {
    return sink_.bytes_written();
  }
  // High-water mark of the in-memory encoding buffer — O(one window) by
  // construction, independent of horizon length.
  [[nodiscard]] std::size_t peak_buffer_bytes() const { return peak_; }

 private:
  void drain();

  Format format_;
  std::string buffer_;
  JsonFileSink sink_;
  JsonEmitter emitter_;  // JSON only
  std::size_t windows_ = 0;
  std::size_t peak_ = 0;
  bool finished_ = false;
};

// The JSON form: the finished file is what write_sim_trace_json writes.
class SimTraceWriter : public TraceWriter {
 public:
  explicit SimTraceWriter(const std::string& path, int indent = 2)
      : TraceWriter(path, Format::kJson, indent) {}
};

// One-shot form of SimTraceWriter (the repo's canonical trace file).
void write_sim_trace_json(const std::vector<WindowMetrics>& metrics,
                          const std::string& path);

}  // namespace iaas
