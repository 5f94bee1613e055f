#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash wildbench/run.sh --workload census --seed 1 --seconds 15 --trace 0
# Build output, the Go build cache and temporary files stay under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/wildbench/go.mod" ]; then
	echo "wildbench: run from the repository root (go.mod and wildbench/go.mod needed)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/wildbench" && go build -o "$out/wildbench" .)
exec "$out/wildbench" "$@"
