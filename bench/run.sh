#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#   bash bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--sets N]
# The Go build cache and the binary live in .bench_build/ under the root, so
# a run reads and writes only inside its checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build"
GOCACHE=$build/go-cache go -C "$here" build -o "$build/bagpipe-bench" .
cd "$root"
exec "$build/bagpipe-bench" --out "$here/out" "$@"
