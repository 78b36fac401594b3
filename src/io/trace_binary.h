// Compact binary trace format (DESIGN.md §13) — the disk-efficient twin
// of the JSON trace files, for million-window runs where pretty JSON is
// ~10× the bytes and most of the emission time.
//
// Layout (all little-endian):
//   magic   8 bytes  "IAASTRCB"
//   version u32      format version (currently 1)
//   kind    u8       0 = RunTrace, 1 = SimTrace
//   payload          kind-specific, see trace_binary.cpp
//
// Integers are LEB128 varints (window counters are mostly small);
// doubles are raw IEEE-754 bit patterns (8 bytes LE), so every value —
// including negative zero and 17-digit mantissas — round-trips
// bit-exactly.  A SimTrace payload is a stream of tagged window records
// (0x01 ... record, 0x00 end), so the writer never needs the window
// count up front and a truncated file is detected by the missing end
// marker.  Both the layout and the optional blocks come from the field
// lists (common/fields): a window record opens with a flags byte holding
// each present block's bit, so binary -> JSON conversion reproduces the
// JSON file byte-for-byte.  Counts read from a file are bounded by the
// bytes left and integers by their field's width.
//
// Malformed or truncated input throws std::runtime_error (parse-error
// contract, like Json::parse); I/O failures abort via IAAS_EXPECT
// (fail-loud writer contract, like common/csv).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "io/trace_stream.h"
#include "sim/simulator.h"

namespace iaas {

inline constexpr char kBinaryTraceMagic[8] = {'I', 'A', 'A', 'S',
                                              'T', 'R', 'C', 'B'};
inline constexpr std::uint32_t kBinaryTraceVersion = 1;

enum class BinaryTraceKind : std::uint8_t { kRunTrace = 0, kSimTrace = 1 };

// Magic sniff: true iff the file starts with the binary trace magic.
// Missing/short files simply return false.
bool is_binary_trace_file(const std::string& path);

// Header read (magic + version validated); throws on a non-binary file.
BinaryTraceKind binary_trace_kind(const std::string& path);

void write_binary_run_trace(const telemetry::RunTrace& trace,
                            const std::string& path);
telemetry::RunTrace read_binary_run_trace(const std::string& path);

void write_binary_sim_trace(const std::vector<WindowMetrics>& metrics,
                            const std::string& path);
std::vector<WindowMetrics> read_binary_sim_trace(const std::string& path);

// What BinaryTraceWriter appends: the header, one window record, and
// the end marker.
void put_binary_header(std::string& out, BinaryTraceKind kind);
void put_binary_window(std::string& out, const WindowMetrics& row);
void put_binary_end(std::string& out);

// The binary form of SimTraceWriter (same counters at finish()).
class BinaryTraceWriter : public TraceWriter {
 public:
  explicit BinaryTraceWriter(const std::string& path)
      : TraceWriter(path, Format::kBinary, -1) {}
};

}  // namespace iaas
