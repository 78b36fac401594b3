// Streaming append-only JSON writer — the zero-tree emission path for
// traces and bench reports.  A JsonEmitter writes directly into one
// caller-owned (reusable) std::string through the same formatters as
// Json::dump (json_detail::*), so for any document the streamed bytes
// are identical to building the equivalent Json tree and dumping it
// with the same indent.
//
// Usage:
//   std::string buf;
//   JsonEmitter e(buf, /*indent=*/2);
//   e.begin_object();
//   e.key("label"); e.value("run");
//   e.key("rows");  e.begin_array();
//   e.value(std::uint64_t{7});
//   e.end_array();
//   e.end_object();          // buf now holds the full document
//
// The owner may drain the buffer between values (write + clear): the
// emitter's state lives in its own members, so the trace writers hold
// one window of text at a time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace iaas {

class JsonEmitter {
 public:
  // Writes into `out` (appended; caller clears/reuses it between
  // documents).  indent < 0 -> compact; otherwise pretty-print with
  // that many spaces per level, matching Json::dump(indent).
  explicit JsonEmitter(std::string& out, int indent = -1)
      : out_(out), indent_(indent) {}

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  // Object member key; must be followed by exactly one value or
  // container begin.
  void key(std::string_view k);

  void value(bool b);
  void value(double d);  // aborts on non-finite (json_detail screen)
  void value(std::uint64_t v);
  void value(std::string_view s);
  void value(const char* s) { value(std::string_view(s)); }

 private:
  void open(char bracket);
  void close(char bracket);
  void separate_child();
  void newline_indent(int depth);
  void before_value();

  std::string& out_;
  int indent_;
  int depth_ = 0;                    // open containers
  bool key_pending_ = false;         // key() emitted, value expected
  std::uint64_t child_written_ = 0;  // bit d: depth-d container non-empty
};

}  // namespace iaas
