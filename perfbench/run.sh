#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload rc-repart --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write (Go build cache, temporary files,
# the binary, span dumps) stays under .bench_build at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -spans "$out/spans" "$@"
