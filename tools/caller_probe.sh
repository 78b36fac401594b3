#!/usr/bin/env bash
# Caller probe: lists the iaas:: functions that the src/ libraries define
# but that no bench, example or perfbench binary links -- code that only
# the tests reach (or nothing does).
#
# It builds the benches, the examples and perfbench with every function in
# its own section, lets the linker drop the unreferenced ones, and prints
# the defined symbols no such binary keeps, one per line.  Compiler clone
# suffixes (" [clone .cold]", " [clone .constprop.0]", ...) are folded into
# the function they were split from.
#
# Usage: tools/caller_probe.sh [--inline-aware] [--check] BUILD_DIR
#
#   BUILD_DIR       scratch directory for the two probe builds (created).
#   --inline-aware  also emit and list every inline function a library
#                   translation unit sees (-fkeep-inline-functions, weak
#                   "W" symbols kept), so header-only code shows up too.
#                   Expect trivial accessors and constructors in the list.
#   --check         exit 1 when a listed name matches no line of
#                   tools/caller_probe.keep (the test oracles kept on
#                   purpose); the unexpected names are printed on stderr.
#                   Not with --inline-aware, whose list the keep-list does
#                   not cover.
#
# Both modes compile with -fno-inline: a function inlined at every call
# site would otherwise have no out-of-line copy to find in the binaries.
# The builds use one job per processor (nproc).
#
# Run from anywhere; the source tree is this script's parent directory.
set -euo pipefail

inline_aware=0
check=0
build_dir=""
for arg in "$@"; do
  case "$arg" in
    --inline-aware) inline_aware=1 ;;
    --check) check=1 ;;
    -h|--help) sed -n '2,29p' "$0"; exit 0 ;;
    -*) echo "unknown option: $arg" >&2; exit 2 ;;
    *) build_dir="$arg" ;;
  esac
done
if [[ -z "$build_dir" ]]; then
  echo "usage: $0 [--inline-aware] [--check] BUILD_DIR" >&2
  exit 2
fi
if (( inline_aware && check )); then
  echo "--check reads the -fno-inline list; run --inline-aware without it" >&2
  exit 2
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
mkdir -p "$build_dir"
build_dir="$(cd "$build_dir" && pwd)"
jobs="$(nproc)"

cxx_flags="-ffunction-sections -fno-inline"
symbol_kinds="Tt"
if (( inline_aware )); then
  cxx_flags+=" -fkeep-inline-functions"
  symbol_kinds="TtW"
fi
cmake_flags=(-DCMAKE_BUILD_TYPE=Release
             "-DCMAKE_CXX_FLAGS=$cxx_flags"
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

benches=$(cd "$root/bench" && ls *.cpp | grep -v '^bench_util' | sed 's/\.cpp$//')
examples=$(cd "$root/examples" && ls *.cpp | sed 's/\.cpp$//')

cmake -S "$root" -B "$build_dir/main" "${cmake_flags[@]}" > /dev/null
# shellcheck disable=SC2086  # word splitting of the target lists is wanted
cmake --build "$build_dir/main" -j "$jobs" --target $benches $examples \
  > /dev/null
cmake -S "$root/perfbench" -B "$build_dir/perf" "${cmake_flags[@]}" \
  > /dev/null
cmake --build "$build_dir/perf" -j "$jobs" > /dev/null

# Defined iaas:: functions of the given files, clone suffixes folded,
# sorted and unique.  A standard-library template instantiation whose
# return type is an iaas:: type ("iaas::LinTerm* std::__niter_wrap<...>")
# is not an iaas:: function and is dropped.
functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk -v kinds="$symbol_kinds" 'index(kinds, $2) > 0' |
    cut -d' ' -f3- | grep '^iaas::' |
    grep -Ev '^iaas::[A-Za-z0-9_:]*[*&]* std::' |
    sed 's/ \[clone [^]]*\]//g' | sort -u
}

defined="$build_dir/defined.txt"
linked="$build_dir/linked.txt"
functions "$build_dir"/main/src/*/*.a > "$defined"
binaries=()
for b in $benches; do binaries+=("$build_dir/main/bench/$b"); done
for e in $examples; do binaries+=("$build_dir/main/examples/$e"); done
binaries+=("$build_dir/perf/perfbench_driver")
functions "${binaries[@]}" > "$linked"

listed="$build_dir/listed.txt"
comm -23 "$defined" "$linked" > "$listed"
cat "$listed"

if (( check )); then
  keep="$root/tools/caller_probe.keep"
  unexpected=$(grep -v '^#' "$keep" | grep -v '^$' |
               grep -vFf - "$listed" || true)
  if [[ -n "$unexpected" ]]; then
    echo "caller probe: reached by no bench, example or perfbench binary" \
         "and not in tools/caller_probe.keep:" >&2
    echo "$unexpected" >&2
    exit 1
  fi
fi
