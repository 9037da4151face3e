#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it:
#
#   bash perfbench/run.sh --workload reads-cc --seed 1 --seconds 25 --trace 0
#
# Run from the root of the checkout. Every file the build and the run
# write stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
