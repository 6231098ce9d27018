#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash benchmark/run.sh --workload solve-hot --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache, the benchmark and mstserve binaries, stream directories,
# server logs, span JSON) stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
# Build offline with the installed toolchain only.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C benchmark build -o "$out/bench" .
exec "$out/bench" "$@"
