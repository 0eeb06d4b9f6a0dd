#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and
# executes it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload dc55 --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary) and
# every daemon data directory stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/bin" "$out/config"

# The go command keeps telemetry counters under the user config
# directory; point it into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go -C "$root/e2ebench" build -o "$out/bin/e2ebench" .

# The benchmark runs on one CPU: jobs, daemons and the speed probe
# (probe.go) share one Go processor, pinned to the first CPU this shell
# may use, so the probe measures the CPU the jobs run on.
export GOMAXPROCS=1
cpus=$(taskset -pc $$)
cpus=${cpus##*: }
exec taskset -c "${cpus%%[-,]*}" "$out/bin/e2ebench" "$@"
