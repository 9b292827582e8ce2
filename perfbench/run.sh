#!/usr/bin/env bash
# Builds mpschedd and the benchmark driver from the checkout it is run in,
# then runs the driver with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload cold-compile --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build): the Go build cache, the
# binaries and the trace dumps.
set -euo pipefail

root=$PWD
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath \
	GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

command -v go >/dev/null || PATH=$PATH:/usr/local/go/bin
# With telemetry in its default "local" mode, the go command forks a
# detached upload process the first time it runs against a fresh
# telemetry directory, and that process outlives this script. Turn it off.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/mpschedd" ./cmd/mpschedd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" --daemon "$out/bin/mpschedd" --out "$out" "$@"
