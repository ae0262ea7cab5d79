#!/usr/bin/env bash
# Builds mmbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload rounds-heavy --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and every
# file the benchmark writes stay under .bench_build/ in that directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
# The go command keeps its cache, module path, telemetry counters and work
# directories in the user's directories by default; point all of them here.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/mmbench" ./cmd/mmbench
exec "$out/mmbench" -dir "$out" "$@"
