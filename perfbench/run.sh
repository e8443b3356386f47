#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build and scratch file stays under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout; the Go
# toolchain is kept offline and local.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config" "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out" "$@"
