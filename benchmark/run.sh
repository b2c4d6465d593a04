#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build/
# and runs it with the arguments given. Everything the go tool writes
# (build cache, temporary files, the binary) stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/gridbench" ./benchmark
exec "$build/gridbench" "$@"
