#!/usr/bin/env bash
# Builds the SPIRE serving benchmark from this checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash spirebench/run.sh --workload serve-hot --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache) stays under .bench_build/
# in the checkout; the build never touches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd "$root/spirebench" && go build -o "$out/spirebench" .) >&2
exec "$out/spirebench" "$@"
