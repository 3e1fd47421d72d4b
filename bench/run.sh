#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source into
# .bench_build/ of the current checkout, then run it with the driver's
# arguments. Everything the toolchain and the benchmark write (build
# cache, temp files, WAL directories, span files) stays under
# .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/bench" -o "$build/paretobench" .
exec "$build/paretobench" -workdir "$build/work" "$@"
