#!/bin/sh
# Builds the benchmark (the Go module in this directory, which imports the
# repository's packages from source) and runs it with the given flags.
# Run it from the repository root:
#
#   sh perfbench/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# The binary, Go's build cache and Go's config directory (where the
# toolchain keeps telemetry counters) live in .bench_build at the root, so
# a run writes nothing outside the checkout.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
