#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the build and
# the run write (Go build cache, binary, generated inputs, sockets) stays
# under .bench_build/.
#
#   bash benchmark/run.sh --workload serve_mix --seed 42 --seconds 12 --trace 0
#   bash benchmark/run.sh -all -seed 42 -out results.json
#   bash benchmark/run.sh -compare a.json b.json
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
# The module replaces scalegnn with ../, so the build fails (and nothing is
# run) in a tree that holds the benchmark without the program.
(cd "$here" && go build -o "$build/scalegnn-benchmark" .)
# BENCHMARK.json is generated from the catalog in spec.go; refuse to measure
# with a contract that has drifted from the code.
if [ "${1:-}" != "-manifest" ] && ! "$build/scalegnn-benchmark" -manifest | cmp -s - "$root/BENCHMARK.json"; then
  echo "benchmark: BENCHMARK.json differs from the catalog; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json" >&2
  exit 3
fi

# A path relative to the working directory keeps unix socket paths short
# (the driver runs from the root of the checkout).
exec "$build/scalegnn-benchmark" -tmp "$(realpath --relative-to="$PWD" "$build/tmp")" "$@"
