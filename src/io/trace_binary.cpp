#include "io/trace_binary.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/expect.h"

namespace iaas {
namespace {

[[noreturn]] void parse_error(const std::string& what) {
  throw std::runtime_error("trace_binary: " + what);
}

constexpr std::uint8_t kRecordWindow = 0x01;
constexpr std::uint8_t kRecordEnd = 0x00;

// ------------------------------------------------------- encoding -----

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

// Appends listed fields in list order: unsigned integers as varints,
// doubles as their 8 bit-pattern bytes, bools and enums as one byte,
// strings and lists length-first, present blocks only — each setting
// its flag bit in the record's flags byte at out[flags_at].
class BinaryOut {
 public:
  explicit BinaryOut(std::string& out,
                     std::size_t flags_at = std::string::npos)
      : out_(out), flags_at_(flags_at) {}

  template <typename T, typename... Names>
  void leaf(const char*, const T& v, fields::Tag, Names...) {
    put(v);
  }

  template <typename T>
  void list(const char*, const std::vector<T>& items, fields::Tag,
            bool = true) {
    put_varint(out_, items.size());
    for (const T& item : items) {
      if constexpr (fields::Scalar<T>) {
        put(item);
      } else {
        visit_fields(item, *this);
      }
    }
  }

  template <typename S>
  void tuple(const char*, const S& s) {
    visit_fields(s, *this);
  }

  // The column count pins the row schema: a reader built against a
  // different row shape rejects the file instead of misaligning rows.
  template <typename Row>
  void table(const char*, const std::vector<std::string>& columns,
             const char* rows_key, const std::vector<Row>& rows) {
    put_varint(out_, columns.size());
    list(rows_key, rows, fields::Tag::kDeterministic);
  }

  template <typename List>
  void block(const fields::Block& b, bool present, List&& list) {
    if (present) {
      IAAS_EXPECT(flags_at_ < out_.size(),
                  "trace_binary: a block outside a window record");
      out_[flags_at_] = static_cast<char>(out_[flags_at_] | b.flag);
      list(*this);
    }
  }

 private:
  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      put_varint(out_, v.size());
      out_ += v;
    } else if constexpr (std::is_floating_point_v<T>) {
      put_le(out_, std::bit_cast<std::uint64_t>(v), 8);
    } else if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      out_ += static_cast<char>(v);
    } else {
      put_varint(out_, v);
    }
  }

  std::string& out_;
  std::size_t flags_at_;
};

// ------------------------------------------------------- decoding -----

// Inverse of BinaryOut over a whole file's bytes.  Every read is bounds
// checked: truncation, forged counts and integers wider than their
// field are parse errors.
class BinaryIn {
 public:
  explicit BinaryIn(std::string data) : data_(std::move(data)) {}

  std::uint8_t flags = 0;     // blocks the current record carries
  std::uint8_t declared = 0;  // flag bits of every block visited

  template <typename T>
  void leaf(const char* key, T& v, fields::Tag) {
    get(key, v);
  }

  template <typename E>
  void leaf(const char* key, E& v, fields::Tag, fields::Names<E> names) {
    const std::uint8_t byte = u8();
    if (byte > static_cast<std::uint8_t>(names.last)) {
      parse_error(std::string("unknown ") + key + " " +
                  std::to_string(byte));
    }
    v = static_cast<E>(byte);
  }

  template <typename T>
  void list(const char* key, std::vector<T>& items, fields::Tag,
            bool = true) {
    // Every element takes at least one byte, so a count past the bytes
    // left is forged — rejected before it can size anything.
    const std::uint64_t n = varint();
    if (n > data_.size() - pos_) {
      parse_error("count " + std::to_string(n) + " exceeds the input");
    }
    items.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      T& item = items.emplace_back();
      if constexpr (fields::Scalar<T>) {
        get(key, item);
      } else {
        visit_fields(item, *this);
      }
    }
  }

  template <typename S>
  void tuple(const char*, S& s) {
    visit_fields(s, *this);
  }

  template <typename Row>
  void table(const char*, const std::vector<std::string>& columns,
             const char* rows_key, std::vector<Row>& rows) {
    if (varint() != columns.size()) {
      parse_error("run-trace column count mismatch");
    }
    list(rows_key, rows, fields::Tag::kDeterministic);
  }

  template <typename List>
  void block(const fields::Block& b, bool, List&& list) {
    declared |= b.flag;
    if ((flags & b.flag) != 0) {
      list(*this);
    }
  }

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  // Inverse of put_le.
  std::uint64_t le(int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    }
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t byte = u8();
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        return v;
      }
    }
    parse_error("varint too long");
  }

  void expect_end(const char* what) const {
    if (pos_ != data_.size()) {
      parse_error(std::string("trailing bytes after ") + what);
    }
  }

 private:
  void need(std::uint64_t n) const {
    if (n > data_.size() - pos_) {
      parse_error("truncated input");
    }
  }

  template <typename T>
  void get(const char* key, T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      const std::uint64_t len = varint();
      need(len);
      v = data_.substr(pos_, len);
      pos_ += len;
    } else if constexpr (std::is_floating_point_v<T>) {
      v = std::bit_cast<double>(le(8));
    } else if constexpr (std::is_same_v<T, bool>) {
      v = u8() != 0;
    } else {
      const std::uint64_t u = varint();
      if (u > std::numeric_limits<T>::max()) {
        parse_error(std::string(key) + " " + std::to_string(u) +
                    " overflows its field");
      }
      v = static_cast<T>(u);
    }
  }

  std::string data_;
  std::size_t pos_ = 0;
};

BinaryTraceKind read_header(BinaryIn& in) {
  for (char c : kBinaryTraceMagic) {
    if (in.u8() != static_cast<std::uint8_t>(c)) {
      parse_error("bad magic (not a binary trace file)");
    }
  }
  const std::uint64_t version = in.le(4);
  if (version != kBinaryTraceVersion) {
    parse_error("unsupported version " + std::to_string(version));
  }
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(BinaryTraceKind::kSimTrace)) {
    parse_error("unknown trace kind " + std::to_string(kind));
  }
  return static_cast<BinaryTraceKind>(kind);
}

std::string load_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    parse_error("cannot open " + path);
  }
  std::string data;
  char chunk[1 << 16];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    data.append(chunk, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    parse_error("read error on " + path);
  }
  return data;
}

// A binary trace file positioned after its header, which must say `kind`.
BinaryIn open_trace(const std::string& path, BinaryTraceKind kind) {
  BinaryIn in(load_file(path));
  if (read_header(in) != kind) {
    parse_error(std::string("not a ") +
                (kind == BinaryTraceKind::kRunTrace ? "run" : "sim") +
                " trace: " + path);
  }
  return in;
}

}  // namespace

bool is_binary_trace_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return false;
  }
  char magic[sizeof(kBinaryTraceMagic)];
  const std::size_t got = std::fread(magic, 1, sizeof(magic), file);
  std::fclose(file);
  return got == sizeof(magic) &&
         std::memcmp(magic, kBinaryTraceMagic, sizeof(magic)) == 0;
}

BinaryTraceKind binary_trace_kind(const std::string& path) {
  BinaryIn in(load_file(path));
  return read_header(in);
}

void put_binary_header(std::string& out, BinaryTraceKind kind) {
  out.append(kBinaryTraceMagic, sizeof(kBinaryTraceMagic));
  put_le(out, kBinaryTraceVersion, 4);
  out += static_cast<char>(kind);
}

void put_binary_window(std::string& out, const WindowMetrics& row) {
  out += static_cast<char>(kRecordWindow);
  out += '\0';  // flags, set as present blocks are written
  BinaryOut writer(out, out.size() - 1);
  visit_fields(row, writer);
}

void put_binary_end(std::string& out) {
  out += static_cast<char>(kRecordEnd);
}

void write_binary_run_trace(const telemetry::RunTrace& trace,
                            const std::string& path) {
  std::string out;
  put_binary_header(out, BinaryTraceKind::kRunTrace);
  BinaryOut writer(out);
  visit_fields(trace, writer);
  JsonFileSink sink(path);
  sink.write(out);
  sink.close();
}

telemetry::RunTrace read_binary_run_trace(const std::string& path) {
  BinaryIn in = open_trace(path, BinaryTraceKind::kRunTrace);
  telemetry::RunTrace trace;
  visit_fields(trace, in);
  in.expect_end("run trace");
  return trace;
}

void write_binary_sim_trace(const std::vector<WindowMetrics>& metrics,
                            const std::string& path) {
  BinaryTraceWriter writer(path);
  for (const WindowMetrics& row : metrics) {
    writer.append(row);
  }
  writer.finish();
}

std::vector<WindowMetrics> read_binary_sim_trace(const std::string& path) {
  BinaryIn in = open_trace(path, BinaryTraceKind::kSimTrace);
  std::vector<WindowMetrics> metrics;
  for (;;) {
    const std::uint8_t tag = in.u8();
    if (tag == kRecordEnd) {
      break;
    }
    if (tag != kRecordWindow) {
      parse_error("unknown record tag");
    }
    in.flags = in.u8();
    visit_fields(metrics.emplace_back(), in);
    if ((in.flags & ~in.declared) != 0) {
      parse_error("unknown window flags");
    }
  }
  in.expect_end("end marker");
  return metrics;
}

}  // namespace iaas
