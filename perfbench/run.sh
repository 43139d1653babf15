#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload xlat-heavy --seed 1 --seconds 27 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, the binary, the service's scratch disk cache and the trace
# files of --trace 1 runs.
set -euo pipefail

out=.bench_build
mkdir -p "$out/config"
root=$PWD
# Keep the toolchain's caches and settings inside the checkout, build with
# the installed toolchain only, and ignore any workspace or user GOFLAGS.
GOCACHE="$root/$out/gocache" GOPATH="$root/$out/gopath" GOMODCACHE="$root/$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$root/$out/config" HOME="$root/$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
	go build -C perfbench -o "$root/$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
