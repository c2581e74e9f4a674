#!/usr/bin/env bash
# Builds isampbench from the tree it sits in and runs it with the given
# flags, e.g.
#
#   bash cmd/isampbench/bench.sh --workload kernels --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. The Go build cache, temporary files and
# binaries stay under .bench_build/ in that root, and the go command
# neither downloads modules nor switches toolchains.
set -euo pipefail
root=$PWD
work=$root/.bench_build/isampbench
mkdir -p "$work/tmp" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	GOPATH="$work/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C cmd/isampbench build -o "$work/bin/isampbench" .
exec "$work/bin/isampbench" "$@"
