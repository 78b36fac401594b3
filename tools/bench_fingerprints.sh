#!/usr/bin/env bash
# Fingerprint probe: prints the deterministic fingerprint lines of the
# five fast-tier bench runs that pin the simulators' histories --
# fig_failure_recovery, fig_multicloud (all sizes, then
# IAAS_BENCH_SIZES=16), fig_fairness and sharded_throughput -- each line
# prefixed with the run that printed it.  Wall-clock columns never enter
# a fingerprint, so the lines are the same on every host and thread count.
#
# Usage: tools/bench_fingerprints.sh BUILD_DIR [EXPECTED]
#
#   BUILD_DIR  a built tree; the binaries are read from BUILD_DIR/bench.
#   EXPECTED   a file of the lines to expect (the committed one is
#              tests/data/bench_fingerprints.txt): the script prints a
#              diff against it instead and exits 1 on any difference.
#
# The runs take about a second in a Release build.  They write their CSV,
# JSON and trace files into a temporary directory, removed on exit, and
# see no IAAS_* variable but IAAS_BENCH_FAST=1 (and IAAS_BENCH_SIZES=16
# for the second fig_multicloud run).  ctest runs this as
# `bench_fingerprints` with the committed file.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 BUILD_DIR [EXPECTED]" >&2
  exit 2
fi
bench_dir="$(cd "$1" && pwd)/bench"  # the runs change directory

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
for var in $(compgen -e | grep '^IAAS_' || true); do
  unset "$var"
done

# run LABEL BINARY [VAR=VALUE...]: runs one bench in $work and prints its
# fingerprint lines as "LABEL: line".
run() {
  local label="$1" binary="$2"
  shift 2
  if ! (cd "$work" && env IAAS_BENCH_FAST=1 "$@" "$bench_dir/$binary" \
        > "$work/out.txt" 2>&1); then
    echo "$label failed:" >&2
    tail -n 20 "$work/out.txt" >&2
    exit 1
  fi
  grep -E '^(deterministic_fingerprint=|fingerprint )' "$work/out.txt" |
    sed "s|^|$label: |" || {
    echo "$label printed no fingerprint line" >&2
    exit 1
  }
}

fingerprints() {
  run fig_failure_recovery fig_failure_recovery
  run fig_multicloud fig_multicloud
  run "fig_multicloud sizes=16" fig_multicloud IAAS_BENCH_SIZES=16
  run fig_fairness fig_fairness
  run sharded_throughput sharded_throughput
}

if [[ $# -eq 1 ]]; then
  fingerprints
else
  fingerprints > "$work/fingerprints.txt"
  diff -u "$2" "$work/fingerprints.txt"
fi
