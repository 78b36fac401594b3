#include "io/trace_stream.h"

#include <algorithm>

#include "common/expect.h"
#include "io/trace_binary.h"

namespace iaas {

JsonFileSink::JsonFileSink(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  IAAS_EXPECT(file_ != nullptr,
              ("trace_stream: cannot open " + path).c_str());
}

JsonFileSink::~JsonFileSink() { close(); }

void JsonFileSink::write(std::string_view chunk) {
  if (chunk.empty()) {
    return;
  }
  IAAS_EXPECT(file_ != nullptr, "trace_stream: write after close");
  const std::size_t written =
      std::fwrite(chunk.data(), 1, chunk.size(), file_);
  IAAS_EXPECT(written == chunk.size(),
              ("trace_stream: write error on " + path_).c_str());
  bytes_written_ += written;
}

void JsonFileSink::flush() {
  if (file_ != nullptr) {
    IAAS_EXPECT(std::fflush(file_) == 0,
                ("trace_stream: flush error on " + path_).c_str());
  }
}

void JsonFileSink::close() {
  if (file_ == nullptr) {
    return;
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  IAAS_EXPECT(rc == 0, ("trace_stream: close error on " + path_).c_str());
}

TraceWriter::TraceWriter(const std::string& path, Format format, int indent)
    : format_(format), sink_(path), emitter_(buffer_, indent) {
  if (format_ == Format::kJson) {
    emitter_.begin_object();
    emitter_.key("windows");
    emitter_.begin_array();
  } else {
    put_binary_header(buffer_, BinaryTraceKind::kSimTrace);
  }
  drain();
}

TraceWriter::~TraceWriter() {
  if (!finished_) {
    finish();
  }
}

void TraceWriter::append(const WindowMetrics& row) {
  IAAS_EXPECT(!finished_, "trace_stream: append after finish");
  if (format_ == Format::kJson) {
    emit_window_metrics(emitter_, row);
  } else {
    put_binary_window(buffer_, row);
  }
  drain();
  sink_.flush();  // window visible on disk before the next one starts
  ++windows_;
}

void TraceWriter::finish() {
  if (finished_) {
    return;
  }
  finished_ = true;
  if (format_ == Format::kJson) {
    emitter_.end_array();
    emitter_.end_object();
    buffer_ += '\n';
  } else {
    put_binary_end(buffer_);
  }
  drain();
  sink_.close();
}

void TraceWriter::drain() {
  peak_ = std::max(peak_, buffer_.size());
  sink_.write(buffer_);
  buffer_.clear();
}

void write_sim_trace_json(const std::vector<WindowMetrics>& metrics,
                          const std::string& path) {
  SimTraceWriter writer(path);
  for (const WindowMetrics& row : metrics) {
    writer.append(row);
  }
  writer.finish();
}

}  // namespace iaas
