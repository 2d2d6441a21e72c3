#!/usr/bin/env bash
# Builds the prose CLI (the fleet worker) and the benchmark driver from
# the checkout's sources into .bench_build, then runs the driver with the
# given arguments:
#
#   bash perfbench/run.sh --workload mpas-a --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout (Go build cache included), and no module is downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
# HOME and the XDG directories point into .bench_build too, so the go
# command's own state (GOPATH, telemetry counters) stays in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off \
	GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0 \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/config" XDG_CACHE_HOME="$out/home/cache"
# The go command otherwise starts a detached telemetry process (in its
# own session) on its first run in a fresh HOME, which outlives this
# script. Turning telemetry off first means go starts nothing it does
# not wait for.
go telemetry off
if [[ ! -f go.mod || ! -d cmd/prose ]]; then
	echo "perfbench: run from the root of a prose checkout (no go.mod or cmd/prose here)" >&2
	exit 2
fi
go build -o "$out/prose" ./cmd/prose
go -C perfbench build -o "$out/perfbench" .
# The driver runs on one CPU with GOMAXPROCS=1. Its closed loop never has
# two things to run at once, and a lease's hand-off to the fleet worker
# (which inherits the pinning) then never waits on the other vCPU: with it
# free, host steal time made sweep times swing by half.
pin=()
if command -v taskset >/dev/null && cpu=$(taskset -pc $$ 2>/dev/null | sed 's/.*: //; s/[,-].*//'); then
	pin=(taskset -c "$cpu")
fi
export GOMAXPROCS=1
exec "${pin[@]}" "$out/perfbench" -prose "$out/prose" -ref perfbench/ref/digests.json -work "$out/work" "$@"
