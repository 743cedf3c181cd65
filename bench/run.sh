#!/bin/bash
# Entry point BENCHMARK.json names: builds the benchmark from source inside
# the checkout and runs it with the driver's arguments. `go run ./bench`
# does the same for a developer; this wrapper only pins every build
# artifact (build cache and go's temp dir included) under .bench_build so
# a run reads and writes nothing outside its checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/egdbench" ./bench
exec "$build/egdbench" "$@"
