#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload figures --seed 1 --seconds 12 --trace 0
#
# The build's cache, temporary files and binary stay in .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
