#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload train-hot --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build and run output stays under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory,
# including the Go build cache, so the run touches nothing outside it.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

mkdir -p "$out/go/tmp"
export GOCACHE="$out/go/cache"
export GOTMPDIR="$out/go/tmp"
export TMPDIR="$out/go/tmp"
export GOMODCACHE="$out/go/mod"
export GOPATH="$out/go/path"
export XDG_CONFIG_HOME="$out/go/config"
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off
export GOTELEMETRY=off

(cd perfbench && go build -o "$out/perfbench-bin" .) >&2
exec "$out/perfbench-bin" --out "$out/perfbench" "$@"
