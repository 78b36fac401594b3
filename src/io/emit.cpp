#include "io/emit.h"

#include "common/expect.h"
#include "io/json.h"

namespace iaas {

namespace {
constexpr int kMaxDepth = 64;  // child_written_ is a 64-bit bitset
}  // namespace

void JsonEmitter::newline_indent(int depth) {
  if (indent_ < 0) {
    return;
  }
  out_ += '\n';
  out_.append(static_cast<std::size_t>(indent_ * depth), ' ');
}

void JsonEmitter::separate_child() {
  if (depth_ == 0) {
    return;
  }
  const std::uint64_t bit = 1ull << depth_;
  if ((child_written_ & bit) != 0) {
    out_ += ',';
  }
  newline_indent(depth_);
  child_written_ |= bit;
}

void JsonEmitter::before_value() {
  if (key_pending_) {
    key_pending_ = false;
  } else {
    separate_child();
  }
}

void JsonEmitter::open(char bracket) {
  before_value();
  IAAS_EXPECT(depth_ + 1 < kMaxDepth, "JsonEmitter: nesting too deep");
  ++depth_;
  child_written_ &= ~(1ull << depth_);
  out_ += bracket;
}

void JsonEmitter::close(char bracket) {
  IAAS_EXPECT(depth_ > 0 && !key_pending_,
              "JsonEmitter: unbalanced end_object/end_array");
  const bool non_empty = (child_written_ & (1ull << depth_)) != 0;
  --depth_;
  if (non_empty) {
    newline_indent(depth_);
  }
  out_ += bracket;
}

void JsonEmitter::key(std::string_view k) {
  IAAS_EXPECT(depth_ > 0 && !key_pending_,
              "JsonEmitter: key outside object member position");
  separate_child();
  json_detail::escape_string(k, out_);
  out_ += indent_ < 0 ? ":" : ": ";
  key_pending_ = true;
}

void JsonEmitter::value(bool b) {
  before_value();
  out_ += b ? "true" : "false";
}

void JsonEmitter::value(double d) {
  before_value();
  json_detail::format_double(d, out_);
}

void JsonEmitter::value(std::uint64_t v) {
  before_value();
  json_detail::format_uint(v, out_);
}

void JsonEmitter::value(std::string_view s) {
  before_value();
  json_detail::escape_string(s, out_);
}

}  // namespace iaas
