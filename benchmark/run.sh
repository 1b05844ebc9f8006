#!/usr/bin/env bash
# Builds the benchmark and the fairserved/fairstream binaries it drives,
# then runs it with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload fit-adult --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory, including the Go build cache.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/" ./cmd/fairserved ./cmd/fairstream
(cd benchmark && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -bin "$out/bin" -work "$out/work" "$@"
