#!/usr/bin/env bash
# Builds mtsbench from source and runs it from the repository root, e.g.
#
#   bash bench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh -seed 1                 # every workload
#   bash bench/run.sh compare BASE.jsonl HEAD.jsonl
#
# The build cache and the binary live in .bench_build/ at the root, so
# the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
(cd bench && go build -o "$out/mtsbench" ./cmd/mtsbench)
exec "$out/mtsbench" "$@"
