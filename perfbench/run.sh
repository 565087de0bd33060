#!/usr/bin/env bash
# Builds and runs the repository benchmark. Run it from the repository
# root; every flag is passed to the benchmark:
#
#   bash perfbench/run.sh --workload sim-reuse --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, span exports and bvsimd's
# checkpoint stores all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The simulator code the benchmark runs gets the profile users' bvsim gets.
go -C perfbench build -pgo="$root/cmd/bvsim/default.pgo" -o "$out/perfbench" .
# bvsimd is built exactly as `go build ./cmd/bvsimd` builds it; that
# package has no default.pgo, so it and its workers run without PGO.
go build -o "$out/bvsimd" ./cmd/bvsimd
exec "$out/perfbench" --bvsimd "$out/bvsimd" --out "$out" "$@"
