#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments are the
# benchmark's own (see README.md). Everything the build and the run write
# stays inside the checkout: the Go caches go to .bench_build at its root,
# binaries and span files to bench/out.
set -euo pipefail
bench="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$bench")"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTMPDIR="$root/.bench_build/tmp" GOTOOLCHAIN=local GOWORK=off
mkdir -p "$GOTMPDIR"
(cd "$bench" && go build -o out/bin/bench .)
exec "$bench/out/bin/bench" -root "$root" "$@"
