#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ of the checkout it is started from, then runs it.
# Everything the Go toolchain and the benchmark write stays under that
# directory, so a checkout is left as it was found.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$build/beas-benchmark" .)
exec "$build/beas-benchmark" -root "$root" "$@"
