#!/usr/bin/env bash
# Builds marketd and the perfbench command from this checkout's source,
# then runs perfbench with the given arguments. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload read_mix --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch data all
# live under .bench_build/ in the checkout, so the first run in a fresh
# checkout compiles the standard library once.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
go -C "$root/perfbench" build -o "$out/marketd" ipv4market/cmd/marketd >&2

cd "$root"
exec "$out/perfbench" -marketd "$out/marketd" -workdir "$out" "$@"
