#include "io/json.h"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "common/expect.h"

namespace iaas {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("json: " + what);
}

// Exact double == integer comparisons.  A double equals a uint64 only
// when it is integral, in range, and the cast round-trips bit-exactly.
bool double_equals_uint(double d, std::uint64_t u) {
  if (!(d >= 0.0) || d != std::floor(d) ||
      d >= 18446744073709551616.0 /* 2^64 */) {
    return false;
  }
  const auto cast = static_cast<std::uint64_t>(d);
  return cast == u && static_cast<double>(cast) == d;
}

// Only operator== calls it; kept as half of test_json_fuzz's round-trip
// oracle.
bool double_equals_int(double d, std::int64_t i) {
  if (i >= 0) {
    return double_equals_uint(d, static_cast<std::uint64_t>(i));
  }
  if (d != std::floor(d) || d >= 0.0 ||
      d < -9223372036854775808.0 /* -2^63 */) {
    return false;
  }
  const auto cast = static_cast<std::int64_t>(d);
  return cast == i && static_cast<double>(cast) == d;
}

}  // namespace

Json Json::number(double d) {
  IAAS_EXPECT(std::isfinite(d),
              "json: non-finite number cannot be represented");
  Json j;
  j.value_ = d;
  return j;
}

Json::Type Json::type() const {
  switch (value_.index()) {
    case 0:
      return Type::kNull;
    case 1:
      return Type::kBool;
    case 2:  // double
    case 3:  // int64
    case 4:  // uint64
      return Type::kNumber;
    case 5:
      return Type::kString;
    case 6:
      return Type::kArray;
    default:
      return Type::kObject;
  }
}

bool Json::as_bool() const {
  if (const bool* b = std::get_if<bool>(&value_)) {
    return *b;
  }
  fail("not a boolean");
}

double Json::as_number() const {
  if (const double* d = std::get_if<double>(&value_)) {
    return *d;
  }
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  fail("not a number");
}

std::uint64_t Json::as_uint64() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value_)) {
    return *u;
  }
  if (const std::int64_t* i = std::get_if<std::int64_t>(&value_)) {
    if (*i >= 0) {
      return static_cast<std::uint64_t>(*i);
    }
    fail("negative integer is not a uint64");
  }
  if (const double* d = std::get_if<double>(&value_)) {
    const auto cast = static_cast<std::uint64_t>(*d);
    if (double_equals_uint(*d, cast)) {
      return cast;
    }
    fail("number is not an exact uint64");
  }
  fail("not a number");
}

const std::string& Json::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&value_)) {
    return *s;
  }
  fail("not a string");
}

void Json::push_back(Json element) {
  if (Array* a = std::get_if<Array>(&value_)) {
    a->push_back(std::move(element));
    return;
  }
  fail("push_back on non-array");
}

std::size_t Json::size() const {
  if (const Array* a = std::get_if<Array>(&value_)) {
    return a->size();
  }
  if (const Object* o = std::get_if<Object>(&value_)) {
    return o->size();
  }
  fail("size of non-container");
}

const Json& Json::at(std::size_t index) const {
  if (const Array* a = std::get_if<Array>(&value_)) {
    if (index >= a->size()) {
      fail("array index out of range");
    }
    return (*a)[index];
  }
  fail("indexing non-array");
}

Json& Json::operator[](const std::string& key) {
  Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) {
    fail("operator[] on non-object");
  }
  for (auto& [k, v] : *o) {
    if (k == key) {
      return v;
    }
  }
  o->emplace_back(key, Json());
  return o->back().second;
}

bool Json::contains(const std::string& key) const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) {
    return false;
  }
  for (const auto& [k, v] : *o) {
    if (k == key) {
      return true;
    }
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  if (const Object* o = std::get_if<Object>(&value_)) {
    for (const auto& [k, v] : *o) {
      if (k == key) {
        return v;
      }
    }
    fail("missing key '" + key + "'");
  }
  fail("keyed access on non-object");
}

bool operator==(const Json& a, const Json& b) {
  if (a.type() != b.type()) {
    return false;
  }
  if (a.type() != Json::Type::kNumber) {
    // Same type -> same variant index for non-numbers; containers
    // recurse back into this operator through std::vector's ==.
    return a.value_ == b.value_;
  }
  // Numbers compare by value across their three storage forms, so an
  // integral double equals the integer lexeme it parses back as.
  if (const double* da = std::get_if<double>(&a.value_)) {
    if (const double* db = std::get_if<double>(&b.value_)) {
      return *da == *db;
    }
    if (const std::int64_t* ib = std::get_if<std::int64_t>(&b.value_)) {
      return double_equals_int(*da, *ib);
    }
    return double_equals_uint(*da, std::get<std::uint64_t>(b.value_));
  }
  if (const std::int64_t* ia = std::get_if<std::int64_t>(&a.value_)) {
    if (const double* db = std::get_if<double>(&b.value_)) {
      return double_equals_int(*db, *ia);
    }
    if (const std::int64_t* ib = std::get_if<std::int64_t>(&b.value_)) {
      return *ia == *ib;
    }
    const std::uint64_t ub = std::get<std::uint64_t>(b.value_);
    return *ia >= 0 && static_cast<std::uint64_t>(*ia) == ub;
  }
  const std::uint64_t ua = std::get<std::uint64_t>(a.value_);
  if (const double* db = std::get_if<double>(&b.value_)) {
    return double_equals_uint(*db, ua);
  }
  if (const std::int64_t* ib = std::get_if<std::int64_t>(&b.value_)) {
    return *ib >= 0 && static_cast<std::uint64_t>(*ib) == ua;
  }
  return ua == std::get<std::uint64_t>(b.value_);
}

// ---------------------------------------------------------------- dump --

namespace json_detail {

void escape_string(std::string_view s, std::string& out) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void format_double(double d, std::string& out) {
  IAAS_EXPECT(std::isfinite(d),
              "json: non-finite number cannot be serialised");
  // Round integral values exactly; otherwise shortest round-trip-ish.
  char buf[32];
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", d);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
  }
  out += buf;
}

void format_uint(std::uint64_t v, std::string& out) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

}  // namespace json_detail

namespace {

// Negative integer lexemes are stored as int64; only Json::dump writes
// them back.
void format_int(std::int64_t v, std::string& out) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, result.ptr);
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) {
    return;
  }
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (value_.index()) {
    case 0:  // null
      out += "null";
      return;
    case 1:  // bool
      out += std::get<bool>(value_) ? "true" : "false";
      return;
    case 2:  // double
      json_detail::format_double(std::get<double>(value_), out);
      return;
    case 3:  // int64
      format_int(std::get<std::int64_t>(value_), out);
      return;
    case 4:  // uint64
      json_detail::format_uint(std::get<std::uint64_t>(value_), out);
      return;
    case 5:  // string
      json_detail::escape_string(std::get<std::string>(value_), out);
      return;
    case 6: {  // array
      const Array& a = std::get<Array>(value_);
      if (a.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        newline_indent(out, indent, depth + 1);
        a[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    default: {  // object
      const Object& o = std::get<Object>(value_);
      if (o.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (std::size_t i = 0; i < o.size(); ++i) {
        if (i > 0) {
          out += ',';
        }
        newline_indent(out, indent, depth + 1);
        json_detail::escape_string(o[i].first, out);
        out += indent < 0 ? ":" : ": ";
        o[i].second.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// --------------------------------------------------------------- parse --

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) {
      error("trailing characters after document");
    }
    return value;
  }

 private:
  // Entered at each container open; throws past Json::kMaxParseDepth so
  // nesting bombs become parse errors instead of stack overflows.
  struct DepthGuard {
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > Json::kMaxParseDepth) {
        parser.error("containers nested deeper than kMaxParseDepth");
      }
    }
    ~DepthGuard() { --parser.depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    Parser& parser;
  };

  [[noreturn]] void error(const std::string& what) const {
    fail(what + " at offset " + std::to_string(pos_));
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) {
      error("unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      error(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json::string(parse_string());
      case 't':
        if (consume_literal("true")) {
          return Json::boolean(true);
        }
        error("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          return Json::boolean(false);
        }
        error("invalid literal");
      case 'n':
        if (consume_literal("null")) {
          return Json::null();
        }
        error("invalid literal");
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    DepthGuard depth_guard(*this);
    Json obj = Json::object();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      if (peek() != '"') {
        error("expected object key");
      }
      std::string key = parse_string();
      expect(':');
      obj[key] = parse_value();
      const char c = peek();
      ++pos_;
      if (c == '}') {
        return obj;
      }
      if (c != ',') {
        error("expected ',' or '}' in object");
      }
    }
  }

  Json parse_array() {
    expect('[');
    DepthGuard depth_guard(*this);
    Json arr = Json::array();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      const char c = peek();
      ++pos_;
      if (c == ']') {
        return arr;
      }
      if (c != ',') {
        error("expected ',' or ']' in array");
      }
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        error("unterminated escape");
      }
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              error("invalid \\u escape");
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs unsupported — the
          // library never emits them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          error("unknown escape");
      }
    }
    error("unterminated string");
  }

  Json parse_number() {
    skip_whitespace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    bool integral = true;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E') {
        integral = false;
      }
      ++pos_;
    }
    if (pos_ == start) {
      error("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (integral) {
      // Pure digit lexeme (optional sign): parse exactly as a 64-bit
      // integer so seeds/counters survive past 2^53.  "-0" stays a
      // double to preserve the signed zero's round-trip text, and
      // out-of-range magnitudes fall through to the double path.
      const bool negative = token[0] == '-';
      bool digits_only = token.size() > (negative ? 1u : 0u);
      for (std::size_t i = negative ? 1 : 0; i < token.size(); ++i) {
        if (token[i] < '0' || token[i] > '9') {
          digits_only = false;
          break;
        }
      }
      if (digits_only) {
        errno = 0;
        char* end = nullptr;
        if (negative) {
          const long long v = std::strtoll(token.c_str(), &end, 10);
          if (errno == 0 && end == token.c_str() + token.size() && v != 0) {
            return Json::integer(static_cast<std::int64_t>(v));
          }
          if (errno == 0 && end == token.c_str() + token.size() && v == 0) {
            return Json::number(-0.0);
          }
        } else {
          const unsigned long long v =
              std::strtoull(token.c_str(), &end, 10);
          if (errno == 0 && end == token.c_str() + token.size()) {
            return Json::integer(static_cast<std::uint64_t>(v));
          }
        }
        // Overflowed 64 bits: fall through to the double path.
      }
    }
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      error("malformed number");
    }
    if (!std::isfinite(value)) {
      error("number overflows a double");
    }
    return Json::number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // open containers; capped at Json::kMaxParseDepth
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace iaas
