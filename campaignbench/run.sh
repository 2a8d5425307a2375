#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout, then
# runs the benchmark with the given arguments:
#
#   bash campaignbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ (or $CARGO_TARGET_DIR when that is set), so the Go
# build cache and the stores never leave the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp" "$out/bin" "$out/home"

(
	cd "$here"
	export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
		GOTMPDIR=$out/tmp HOME=$out/home GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
	go build -o "$out/bin/campaignbench" .
) >&2

export TMPDIR=$out/tmp
exec "$out/bin/campaignbench" -work "$out" "$@"
