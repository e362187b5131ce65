#!/usr/bin/env bash
# Builds the benchmark and aquilad from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload giant --seed 1 --seconds 20 --trace 0
#
# Build outputs, Go caches, temporary files, generated inputs, records and
# traces all go under $CARGO_TARGET_DIR (default .bench_build), so nothing
# is written outside the checkout. Without the repository's go.mod next to
# this directory the build fails and no result is printed.
set -euo pipefail

work=${CARGO_TARGET_DIR:-.bench_build}
case $work in
/*) ;;
*) work=$PWD/$work ;;
esac
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$work/config" TMPDIR="$work/tmp" GOTMPDIR="$work/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C bench build -o "$work/bin/bench" . >&2
go -C bench build -o "$work/bin/aquilad" aquila/cmd/aquilad >&2
exec "$work/bin/bench" -work "$work" -aquilad "$work/bin/aquilad" "$@"
