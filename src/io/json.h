// Minimal self-contained JSON value, parser and writer — the library's
// interchange format for scenario files and experiment results (no
// external dependency; the benches stay hermetic).
//
// Supported: null, booleans, finite doubles, 64-bit integers (exact
// lexemes — seeds and counters survive past 2^53), strings (with
// standard escapes incl. \uXXXX), arrays, objects (insertion-ordered).
// Parse errors throw std::runtime_error with a byte offset; non-finite
// doubles are rejected loudly (IAAS_EXPECT) at construction, so a NaN
// objective can never reach a trace file as illegal `nan` text.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace iaas {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}

  static Json null() { return Json(); }
  static Json boolean(bool b) {
    Json j;
    j.value_ = b;
    return j;
  }
  // Finite doubles only: NaN/Inf cannot be represented in JSON, so they
  // abort here (IAAS_EXPECT) instead of serialising as illegal text.
  static Json number(double d);
  // Exact integer lexemes: the whole 64-bit range round-trips through
  // text without the 2^53 double mantissa cliff.
  static Json integer(std::uint64_t v) {
    Json j;
    j.value_ = v;
    return j;
  }
  static Json integer(std::int64_t v) {
    Json j;
    j.value_ = v;
    return j;
  }
  static Json string(std::string s) {
    Json j;
    j.value_ = std::move(s);
    return j;
  }
  static Json array() {
    Json j;
    j.value_ = Array{};
    return j;
  }
  static Json object() {
    Json j;
    j.value_ = Object{};
    return j;
  }

  [[nodiscard]] Type type() const;

  // Typed accessors; wrong-type access throws std::runtime_error.
  [[nodiscard]] bool as_bool() const;
  // Any number as a double (integers past 2^53 lose precision — use
  // as_uint64 for exact counter/seed reads).
  [[nodiscard]] double as_number() const;
  // Exact unsigned integer read: integer lexemes convert directly;
  // doubles are accepted only when integral and exactly representable.
  // Anything else throws — silent truncation is the bug class it exists
  // to kill.
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- array interface ---
  void push_back(Json element);
  [[nodiscard]] std::size_t size() const;  // array or object
  [[nodiscard]] const Json& at(std::size_t index) const;

  // --- object interface ---
  Json& operator[](const std::string& key);  // insert-or-access
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;

  // Serialise. indent < 0 -> compact single line; otherwise pretty-print
  // with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = -1) const;

  // Parse a complete JSON document (trailing garbage is an error).
  static Json parse(std::string_view text);

  // Containers may nest at most this deep when parsing; deeper input
  // throws like any other parse error.  Bounds the recursive descent's
  // stack — and, since every parsed document respects it, the recursive
  // dump/emit walks too — so adversarially nested input (e.g. 10k '['s)
  // fails loud instead of overflowing the stack.
  static constexpr int kMaxParseDepth = 1000;

  // Structural equality.  Numbers compare by value across storage
  // representations: parse("7") (an integer lexeme) equals number(7.0).
  // Only tests compare documents: it is test_json_fuzz's round-trip
  // oracle.
  friend bool operator==(const Json&, const Json&);

 private:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t,
               std::string, Array, Object>
      value_;
};

namespace json_detail {

// The one escape routine and the one number formatter, shared by
// Json::dump and the streaming io/emit writer so the two paths stay
// byte-identical by construction.
void escape_string(std::string_view s, std::string& out);
void format_double(double d, std::string& out);   // aborts on non-finite
void format_uint(std::uint64_t v, std::string& out);

}  // namespace json_detail

}  // namespace iaas
