#!/usr/bin/env bash
# Builds the benchmark and the cafa binaries it drives from this
# checkout's sources, then runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload apps-s1 --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
mkdir -p "$out/bin" "$out/tmp"
(cd "$root/benchmark" && go build -o "$out/bin/" . cafa/cmd/cafa-analyze cafa/cmd/cafa-serve)
exec "$out/bin/benchmark" "$@"
