#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it from
# the repository root:
#
#   bash perfbench/run.sh --workload regen|serve|sessions --seed N --seconds S --trace 0|1
#
# Every build product (Go build cache, temporary files, the binary, span
# dumps, store directories of the in-process shards) lands under
# .bench_build/ at the repository root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root does not hold the timeprotection module" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$here" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
