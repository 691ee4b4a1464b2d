#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it is run from and
# runs it, passing every argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload eval-paper --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, temporary corpora and span files all stay
# under .bench_build/ in the checkout; nothing is fetched (GOPROXY=off).
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" \
	GOPATH="$work/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$work/perfbench" .
exec "$work/perfbench" -work "$work" "$@"
