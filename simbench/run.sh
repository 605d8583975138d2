#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash simbench/run.sh --workload ab-hits --seed 1986 --seconds 10 --trace 0
#
# Everything the build and the run write stays in the build directory,
# $CARGO_TARGET_DIR if set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

# Keep the Go toolchain's caches and settings inside the build directory,
# and never reach for the network.
export GOCACHE=$build/go-cache GOPATH=$build/go-path GOMODCACHE=$build/go-path/pkg/mod
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/simbench" && go build -o "$build/simbench" .)

# Have the Go runtime return freed heap pages with MADV_FREE, so the kernel
# takes them back only under memory pressure. The process's peak RSS is
# then its heap's high-water footprint, instead of a value that depends on
# when the scavenger released pages as the GC ran.
export GODEBUG=${GODEBUG:+$GODEBUG,}madvdontneed=0
exec "$build/simbench" -out "$build" "$@"
