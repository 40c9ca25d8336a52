#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing every
# argument through:
#
#   bash s4bench/run.sh --workload suite-sync --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write (Go
# build cache, binary, journals, result documents, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/s4bench" && go build -o "$build/s4bench" .) >&2
exec "$build/s4bench" "$@"
