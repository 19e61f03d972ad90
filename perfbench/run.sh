#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (Go build cache, temporaries, the binary)
# stays under .bench_build in the current directory, and nothing is
# fetched: the driver needs only the standard library and the parent
# module, which the replace directive in perfbench/go.mod points at.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
