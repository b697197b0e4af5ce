#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload paper-8x8 --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build writes (Go build
# cache, temporary files, Go's local config and telemetry, the binary)
# lands under $CARGO_TARGET_DIR, default .bench_build/.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -buildvcs=false -trimpath -o "$out/perfbench" . 1>&2
commit=""
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
fi
BENCH_COMMIT="$commit" exec "$out/perfbench" "$@"
