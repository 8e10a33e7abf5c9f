#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload gateway-hot --seed 1 --seconds 20 --trace 0
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/perfbench-runs" "$@"
