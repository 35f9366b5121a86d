#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build the harness from source
# inside the checkout, then run it from the checkout's root with the
# driver's arguments. Everything Go writes stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local

(cd "$root/benchmark" && go build -o "$build/roadbenchmark" .)
cd "$root"
exec "$build/roadbenchmark" "$@"
