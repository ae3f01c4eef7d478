#!/usr/bin/env bash
# Builds the time-to-train benchmark from source and runs it. Run it from
# the repository root, for example:
#
#   bash ttbench/run.sh --workload resnet_serial --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off PPROF_TMPDIR="$out"
go -C ttbench build -o "$out/ttbench" .
exec "$out/ttbench" --scratch "$out" "$@"
