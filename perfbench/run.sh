#!/usr/bin/env bash
# Builds the repository benchmark from the sources in the current checkout and
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload bcast1m-k8 --seed 1 --seconds 25 --trace 0
#
# Every build and run artifact (Go build cache and temporary files, binary,
# span files, CPU profiles, result records) stays under $CARGO_TARGET_DIR,
# default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
