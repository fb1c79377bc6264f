#!/usr/bin/env bash
# Builds the benchmark and commserve from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Every build artifact and temporary file stays under .bench_build at
# the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/commserve" ./cmd/commserve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
