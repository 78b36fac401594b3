// Field lists: the one description of each metrics struct's trace schema
// (DESIGN.md §13).  Beside each struct sits a function template
//
//   template <fields::Of<S> Self, typename V> void visit_fields(Self& s, V& v);
//
// that names every field once, in trace order, by calling the visitor:
//
//   v.leaf(key, member, tag)         integer, double, bool or string
//   v.leaf(key, member, tag, names)  enum: its name in JSON, a byte in binary
//   v.list(key, vector, tag[, false])  array of scalars or of listed structs;
//                                    the tag covers scalar elements and the
//                                    length (false: length not fingerprinted)
//   v.tuple(key, member)             listed struct as a positional JSON array
//   v.table(columns_key, columns, rows_key, vector)  listed flat structs: a
//                                    header naming their leaves, then one
//                                    positional row each
//   v.block(block, present, list)    optional group; `list(v)` visits it
//
// Self is S or const S, so one list serves encoders and decoders.  The
// codecs are visitors: JSON emit/parse (io/trace_json), binary put/read
// (io/trace_binary), deterministic_fingerprint (sim/simulator) and the
// RunTrace CSV (common/telemetry).  A new column is one line in a list.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

namespace iaas::fields {

// What a leaf records; only kDeterministic leaves are fingerprinted.  A
// kCounter leaf records the search's effort, not its outcome, so it
// stays out too; CI's perfbench job pins the counters separately.
enum class Tag : std::uint8_t {
  kDeterministic,  // the run's history: equal across threads and replays
  kCounter,        // telemetry counter: the search's effort
  kWallClock,      // timing: differs between replays
  kLabel,          // names the run (label, seed), not part of its history
};

// How deterministic_fingerprint folds an optional block.
enum class Hash : std::uint8_t {
  kAlways,      // every field, present or not
  kLeadAlways,  // the first leaf always, the rest only when present
};

// An optional group of fields.  JSON writes it only when present: as an
// object under `key` (nested) or as members of the enclosing object, the
// first of them named `key` (inline; a parser detects it by that key).
// The binary record sets `flag` in its flags byte when the block follows.
struct Block {
  const char* key;
  bool nested = true;
  std::uint8_t flag = 0;
  Hash hash = Hash::kAlways;
};

// The wire vocabulary of an enum field: values 0..last, each named.
template <typename E>
struct Names {
  const char* (*name)(E);
  E last;
};

template <typename Self, typename S>
concept Of = std::same_as<std::remove_const_t<Self>, S>;

// A member the visitors write as one value (the rest are listed structs).
template <typename T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T> ||
                 std::same_as<T, std::string>;

}  // namespace iaas::fields
