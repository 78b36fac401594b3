// Trace-file validator for the CTest smoke job: scans a directory (or
// explicit file list) for the JSON files the benches emit, parses each
// with the library's own Json parser, and checks every run trace's
// shape: {label, seed, columns, rows} with every row an array of
// numbers as long as `columns`.  Other JSON files are skipped.
//
// Exits non-zero on any parse/shape failure, or when no run trace was
// found at all (an empty directory must not pass as "validated").
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/telemetry.h"
#include "io/json.h"

namespace {

using iaas::Json;

bool check_trace_object(const Json& doc, const std::string& path) {
  const auto& columns = iaas::telemetry::RunTrace::columns();
  if (!doc.contains("label") || !doc.contains("seed") ||
      !doc.contains("columns") || !doc.contains("rows")) {
    std::fprintf(stderr, "%s: missing trace keys\n", path.c_str());
    return false;
  }
  if (doc.at("columns").size() != columns.size()) {
    std::fprintf(stderr, "%s: expected %zu columns, found %zu\n",
                 path.c_str(), columns.size(), doc.at("columns").size());
    return false;
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (doc.at("columns").at(i).as_string() != columns[i]) {
      std::fprintf(stderr, "%s: column %zu is \"%s\", expected \"%s\"\n",
                   path.c_str(), i,
                   doc.at("columns").at(i).as_string().c_str(),
                   columns[i].c_str());
      return false;
    }
  }
  const Json& rows = doc.at("rows");
  if (rows.size() == 0) {
    std::fprintf(stderr, "%s: trace has no rows\n", path.c_str());
    return false;
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Json& row = rows.at(r);
    if (row.size() != columns.size()) {
      std::fprintf(stderr, "%s: row %zu has %zu fields, expected %zu\n",
                   path.c_str(), r, row.size(), columns.size());
      return false;
    }
    for (std::size_t i = 0; i < row.size(); ++i) {
      (void)row.at(i).as_number();  // throws on non-number
    }
  }
  std::printf("ok trace    %s (%zu rows)\n", path.c_str(), rows.size());
  return true;
}

// Returns 1 if the file validated as a run trace, 0 for other JSON;
// flags malformed content.
int check_file(const std::string& path, bool& failed) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    failed = true;
    return 0;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const Json doc = Json::parse(buffer.str());
    if (doc.contains("rows")) {
      failed = !check_trace_object(doc, path) || failed;
      return 1;
    }
    std::printf("skip        %s (not a run trace)\n", path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
    failed = true;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: check_trace <dir-or-json>...\n");
    return 2;
  }
  bool failed = false;
  int traces = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path arg(argv[i]);
    if (std::filesystem::is_directory(arg)) {
      for (const auto& entry :
           std::filesystem::directory_iterator(arg)) {
        if (entry.path().extension() == ".json") {
          traces += check_file(entry.path().string(), failed);
        }
      }
    } else {
      traces += check_file(arg.string(), failed);
    }
  }
  if (traces == 0) {
    std::fprintf(stderr, "no run-trace JSON found\n");
    return 1;
  }
  return failed ? 1 : 0;
}
