#!/usr/bin/env bash
# Builds cmd/pd2bench and runs it against this checkout; arguments pass
# through (e.g. --workload node-batch32 --seed 1 --seconds 16 --trace 0).
# Build caches and run output stay in .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local
mkdir -p .bench_build/bin .bench_build/tmp
(cd bench && go build -o ../.bench_build/bin/pd2bench ./cmd/pd2bench)
exec .bench_build/bin/pd2bench -root "$root" "$@"
