#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Build cache, temporary files
# and the go command's own state all live under .bench_build/, so nothing
# outside the checkout is written. BENCHMARK.json names this script; see
# README.md for the flags.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -C bench -o "$out/expressbench" .
exec "$out/expressbench" "$@"
