#include "io/trace_json.h"

#include <limits>
#include <stdexcept>

#include "io/trace_stream.h"

namespace iaas {

namespace {

[[noreturn]] void shape_error(const std::string& what) {
  throw std::runtime_error("trace_json: " + what);
}

// Writes listed fields as object members, or inside a positional array
// (tuples and table rows) as bare values in list order.
class JsonOut {
 public:
  explicit JsonOut(JsonEmitter& emitter) : e_(emitter) {}

  template <typename T>
  void leaf(const char* key, const T& v, fields::Tag) {
    name(key);
    put(v);
  }

  template <typename E>
  void leaf(const char* key, E v, fields::Tag, fields::Names<E> names) {
    name(key);
    e_.value(names.name(v));
  }

  template <typename T>
  void list(const char* key, const std::vector<T>& items, fields::Tag,
            bool = true) {
    name(key);
    e_.begin_array();
    for (const T& item : items) {
      if constexpr (fields::Scalar<T>) {
        put(item);
      } else {
        object(item);
      }
    }
    e_.end_array();
  }

  template <typename S>
  void tuple(const char* key, const S& s) {
    name(key);
    positional(s);
  }

  template <typename Row>
  void table(const char* columns_key,
             const std::vector<std::string>& columns, const char* rows_key,
             const std::vector<Row>& rows) {
    list(columns_key, columns, fields::Tag::kLabel);
    name(rows_key);
    e_.begin_array();
    for (const Row& row : rows) {
      positional(row);
    }
    e_.end_array();
  }

  template <typename List>
  void block(const fields::Block& b, bool present, List&& list) {
    if (present && b.nested) {
      name(b.key);
      e_.begin_object();
      list(*this);
      e_.end_object();
    } else if (present) {
      list(*this);
    }
  }

  template <typename S>
  void object(const S& s) {
    e_.begin_object();
    visit_fields(s, *this);
    e_.end_object();
  }

 private:
  void name(const char* key) {
    if (keyed_) {
      e_.key(key);
    }
  }

  template <typename S>
  void positional(const S& s) {
    const bool keyed = keyed_;
    keyed_ = false;
    e_.begin_array();
    visit_fields(s, *this);
    e_.end_array();
    keyed_ = keyed;
  }

  template <typename T>
  void put(const T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      e_.value(std::string_view(v));
    } else if constexpr (std::is_same_v<T, bool> ||
                         std::is_floating_point_v<T>) {
      e_.value(v);
    } else {
      e_.value(static_cast<std::uint64_t>(v));
    }
  }

  JsonEmitter& e_;
  bool keyed_ = true;
};

// Reads listed fields from an object by key, or from a positional array
// in list order.
class JsonIn {
 public:
  explicit JsonIn(const Json& node, bool positional = false)
      : node_(node), positional_(positional) {}

  template <typename T>
  void leaf(const char* key, T& v, fields::Tag) {
    get(next(key), key, v);
  }

  template <typename E>
  void leaf(const char* key, E& v, fields::Tag, fields::Names<E> names) {
    const std::string& text = next(key).as_string();
    for (int i = 0; i <= static_cast<int>(names.last); ++i) {
      if (text == names.name(static_cast<E>(i))) {
        v = static_cast<E>(i);
        return;
      }
    }
    shape_error(std::string("unknown ") + key + " " + text);
  }

  template <typename T>
  void list(const char* key, std::vector<T>& items, fields::Tag,
            bool = true) {
    const Json& array = next(key);
    items.resize(array.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      if constexpr (fields::Scalar<T>) {
        get(array.at(i), key, items[i]);
      } else {
        JsonIn in(array.at(i));
        visit_fields(items[i], in);
      }
    }
  }

  template <typename S>
  void tuple(const char* key, S& s) {
    read_positional(next(key), key, s);
  }

  template <typename Row>
  void table(const char* columns_key,
             const std::vector<std::string>& columns, const char* rows_key,
             std::vector<Row>& rows) {
    std::vector<std::string> read;
    list(columns_key, read, fields::Tag::kLabel);
    if (read != columns) {
      shape_error(std::string(columns_key) + " differ from this build's");
    }
    const Json& array = next(rows_key);
    rows.resize(array.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      read_positional(array.at(i), rows_key, rows[i]);
    }
  }

  template <typename List>
  void block(const fields::Block& b, bool, List&& list) {
    if (node_.contains(b.key)) {
      JsonIn in(b.nested ? node_.at(b.key) : node_);
      list(in);
    }
  }

 private:
  const Json& next(const char* key) {
    return positional_ ? node_.at(index_++) : node_.at(key);
  }

  template <typename S>
  static void read_positional(const Json& array, const char* key, S& s) {
    JsonIn in(array, /*positional=*/true);
    visit_fields(s, in);
    if (in.index_ != array.size()) {
      shape_error(std::string(key) + ": expected " +
                  std::to_string(in.index_) + " values");
    }
  }

  template <typename T>
  static void get(const Json& j, const char* key, T& v) {
    if constexpr (std::is_same_v<T, std::string>) {
      v = j.as_string();
    } else if constexpr (std::is_same_v<T, bool>) {
      v = j.as_bool();
    } else if constexpr (std::is_floating_point_v<T>) {
      v = j.as_number();
    } else {
      const std::uint64_t u = j.as_uint64();
      if (u > std::numeric_limits<T>::max()) {
        shape_error(std::string(key) + " " + std::to_string(u) +
                    " overflows its field");
      }
      v = static_cast<T>(u);
    }
  }

  const Json& node_;
  bool positional_;
  std::size_t index_ = 0;
};

template <typename Emit>
void write_json_file(const std::string& path, Emit&& emit) {
  JsonFileSink sink(path);
  std::string text;
  JsonEmitter emitter(text, 2);
  emit(emitter);
  text += '\n';
  sink.write(text);
  sink.close();
}

}  // namespace

void emit_run_trace(JsonEmitter& emitter, const telemetry::RunTrace& trace) {
  JsonOut(emitter).object(trace);
}

void emit_window_metrics(JsonEmitter& emitter, const WindowMetrics& row) {
  JsonOut(emitter).object(row);
}

telemetry::RunTrace trace_from_json(const Json& json) {
  telemetry::RunTrace trace;
  JsonIn in(json);
  visit_fields(trace, in);
  return trace;
}

std::vector<WindowMetrics> sim_trace_from_json(const Json& json) {
  std::vector<WindowMetrics> windows;
  JsonIn(json).list("windows", windows, fields::Tag::kDeterministic);
  return windows;
}

void write_trace_json(const telemetry::RunTrace& trace,
                      const std::string& path) {
  write_json_file(path, [&](JsonEmitter& e) { emit_run_trace(e, trace); });
}

}  // namespace iaas
