#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.
#
#   bash perfbench/run.sh --workload query-wire --seed 1 --seconds 10 --trace 0
#
# Run from the root of the repository. Every file the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR when set,
# otherwise .bench_build): the Go build cache, the binary, the temporary
# WAL data dirs and the span files of traced runs.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no sfccover source tree to build" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

# The go command's caches, temporary files and config (telemetry
# included) all go under the build directory.
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" --out-dir "$build" "$@"
