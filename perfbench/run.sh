#!/usr/bin/env bash
# Builds tdxd and the benchmark program from the checkout in the current
# directory, then runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and scratch file lands under .bench_build/
# in the checkout; the Go toolchain is kept off the network and out of
# the user's home directory.
set -euo pipefail
root=$PWD
out=$root/.bench_build/perfbench
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$root/.bench_build/go-cache
export GOMODCACHE=$root/.bench_build/go-mod
export GOPATH=$root/.bench_build/go-path
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/tdxd" ./cmd/tdxd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -tdxd "$out/tdxd" "$@"
