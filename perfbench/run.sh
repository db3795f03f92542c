#!/usr/bin/env bash
# Builds the zombiescope end-to-end benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload batch-report --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch inputs, traces) stays under
# .bench_build/ in the current directory; nothing is fetched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
