#!/usr/bin/env bash
# run.sh — build hebsim and the benchmark harness from the checkout in the
# current directory, then run the benchmark. All build output, the Go
# build cache and scratch files stay under .bench_build/ in the checkout.
#
# Usage (from the checkout root):
#   bash perfbench/run.sh --workload paper-suite --seed 42 --seconds 30 --trace 0
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/hebsim" ]]; then
	echo "perfbench: run from the root of a heb checkout (no go.mod or cmd/hebsim here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"

go build -o "$build/bin/hebsim" ./cmd/hebsim
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -root "$root" -hebsim "$build/bin/hebsim" "$@"
