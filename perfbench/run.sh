#!/usr/bin/env bash
# Builds perfbench into .bench_build and runs it with the given flags.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload live-dashboard --seed 77 --seconds 15 --trace 0
#
# Every file the build and the run write stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp"
export GOCACHE="$build/go-cache"
export GOTMPDIR="$build/go-tmp"
export GOMODCACHE="$build/go-mod"
export GOPATH="$build/go-path"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOENV=off
export GOWORK=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
