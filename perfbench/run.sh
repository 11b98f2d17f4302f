#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it with the
# given arguments (see perfbench/README.md). Run from the repository root:
#
#   bash perfbench/run.sh --workload joint-large --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
# The toolchain's config and telemetry files go here too.
export XDG_CONFIG_HOME="$out/config"
# Build offline with the installed toolchain; the module needs no downloads.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
