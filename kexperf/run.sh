#!/usr/bin/env bash
# Builds the kexperf benchmark from the sources of the checkout it is run
# from, then runs it with the given flags. Run it from the repository root:
#
#   bash kexperf/run.sh --workload read --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the build's temporary files stay
# under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/kexperf" && go build -o "$out/kexperf" .)
exec "$out/kexperf" "$@"
