#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload dense --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (Go build cache, binary, daemon data dirs, sweep output, traces)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

# Keep the toolchain's caches, temp files and telemetry inside the checkout.
export HOME="$out/home"
export TMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -work "$out/work" "$@"
