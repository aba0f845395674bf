#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the root
# of a checkout:
#
#   bash gmbench/run.sh --workload mine-sat --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache, temporary files, toolchain config and
# telemetry, and the binary all stay under .bench_build in the checkout, so
# the benchmark writes nothing outside it.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/gmbench" build -o "$out/gmbench" .
exec "$out/gmbench" -work "$out" "$@"
