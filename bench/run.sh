#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, as the driver
# named in BENCHMARK.json does:
#
#   bash bench/run.sh --workload call_tcp --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (Go's caches, its temporary files, the
# binary) stays under .bench_build/ in the checkout, and it reads
# nothing outside: no user go env, no workspace file, no network.
# Outside a checkout of the repository the build fails, and so does
# this script.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off
go build -C "$here" -o "$out/bench" .
exec "$out/bench" -root "$root" "$@"
