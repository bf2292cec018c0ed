#!/usr/bin/env bash
# Builds the benchmark and the krum-scenariod binary it drives, then
# runs the benchmark with the given arguments. Everything the build
# writes — Go's build cache included — stays inside the checkout, under
# .bench_build/ at its root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$build/bin/krum-scenariod" ./cmd/krum-scenariod)
(cd "$here" && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" -dir "$here" -scenariod "$build/bin/krum-scenariod" "$@"
