#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload paper-tables --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository: the Go build cache, the binary, spans, reports and
# the daemon's journal and cache file.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/bin"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" TMPDIR="$build/go-tmp"
export GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
cd "$root"
exec "$build/bin/e2ebench" "$@"
