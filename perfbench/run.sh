#!/usr/bin/env bash
# Builds the benchmark from the repository's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sim --seed 1 --seconds 20 --trace 0
#
# Build output (binary, Go build cache, traces) goes to $CARGO_TARGET_DIR
# if set, else .bench_build, inside the repository.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOTELEMETRY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"

go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" --out "$out/perfbench-trace" "$@"
