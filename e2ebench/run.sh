#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it from the
# repository root, passing every argument through:
#
#   bash e2ebench/run.sh --workload relay-10k --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's spans and CPU
# profiles all stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/e2ebench" build -o "$out/e2ebench" .
cd "$root"
exec "$out/e2ebench" "$@"
