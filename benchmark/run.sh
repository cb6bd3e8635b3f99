#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (.bench_build/, gitignored) and runs it with the
# driver's arguments. Everything the Go toolchain writes stays under
# .bench_build; nothing is fetched.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
