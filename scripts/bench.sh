#!/usr/bin/env bash
# bench.sh — measure the sweep, engine and observability benchmarks and
# hand the `go test` output to the benchmark gate, `hebwatch bench`,
# which writes or checks BENCH_sweep.json and BENCH_obs.json.
#
# The sweep set runs the multi-seed sequential/parallel pair plus the raw
# engine throughput benchmark and its pooled-reuse counterpart
# (BenchmarkEngineReuse: the same hour checked out of a warmed RunCache);
# the Sequential/Parallel pair is the wall-clock headline for the shared
# runner (internal/runner) and needs GOMAXPROCS >= 4 to show a speedup.
# The pair times warm sweeps only (every worker's run states are built
# before the timer starts), and Parallel always runs the worker pool, at
# least two workers, so both allocs/op columns are the same on any core
# count.
#
# The obs set runs the same HEB-D hour with each observability layer on:
# Obs (event log + decision trace), Probes (per-device probes + energy
# auditor + span tracer), Checkpoint (the flight recorder's state
# snapshots at slot boundaries), Manifest (capture run-index rows built
# from contributed artifacts, no file IO), Alerts (the online SLO rule
# engine, internal/obs/alerts) and Prof (internal/obs/prof cell labels on
# the engine hot loop). Every layer attaches as an instrument on the
# engine's one seam, so there is one off path: an empty instrument list,
# pinned by BenchmarkEngineStep's exact allocs/op in the sweep set and by
# BenchmarkEngineBare, the same hour measured in the obs set as the
# in-process reference for the checkpoint overhead target.
# BenchmarkCheckpointDelta rides in the obs set: the checkpointed hour
# again, but reporting the delta chain's own bytes (ckptKB/op) and delta
# share alongside ns/op.
#
# Usage:
#   scripts/bench.sh [sweep.json [obs.json]]   measure and write baselines
#   scripts/bench.sh -check [sweep.json [obs.json]]
#                                              measure and gate against
#                                              the committed baselines
#   scripts/bench.sh -profile [prof.json]      attribute the engine hot
#                                              loop: run BenchmarkEngineStep
#                                              under -memprofile and rewrite
#                                              the BENCH_prof.json top-frames
#                                              baseline via hebprof check
#
# The rules and targets -check applies live in cmd/hebwatch/bench.go.
# Two measuring choices here keep its exact allocs/op comparisons
# stable. The checkpoint pair (BenchmarkEngineCheckpointEnabled,
# BenchmarkCheckpointDelta) runs in a process of its own at a fixed
# -benchtime 20x. Each GC cycle inside the timed loop costs the pair ~9
# allocs of sync.Pool refills (fmt, encoding/json, ckptBufPool); at a
# time-based iteration count a cycle lands every ~9 runs, so the mean
# sits within a few hundredths of an integer and go test's truncated
# allocs/op flips with GC timing. At a fixed count the timed loop starts
# right after testing's runtime.GC(), with the same heap and the same
# number of runs every time, so the same cycles fall inside it.
# BenchmarkEngineBare runs in the same process, so the checkpoint-overhead
# ratio compares like with like.
# The whole obs set runs at GOMAXPROCS=1. With more Ps the GC's
# background workers and the per-P sync.Pool shards make the refill
# count depend on the core count: on 2 CPUs the checkpoint pair measures
# 1066/1067 and ManifestEnabled 1062, against 1063/1064 and 1061 on one.
# Every obs benchmark is a single-goroutine engine run, so one P
# measures the same program on any box.
# When BENCH_prof.json is committed, -check additionally re-runs the
# engine memprofile and gates its frame shares through `hebprof check`
# (new frames >= 3% flat, known frames grown past 1.5x fail).
# Exits non-zero on any violation.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
profile=0
case "${1:-}" in
-check) check=1; shift ;;
-profile) profile=1; shift ;;
esac
sweep_out="${1:-BENCH_sweep.json}"
obs_out="${2:-BENCH_obs.json}"
prof_base="BENCH_prof.json"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT

# engine_memprofile reruns the hot-loop benchmark under the allocation
# profiler and leaves the pprof proto at $scratch/engine_mem.pprof.
engine_memprofile() {
	go test -run '^$' -bench 'BenchmarkEngineStep$' -count=1 \
		-memprofile "$scratch/engine_mem.pprof" -outputdir "$scratch" . >/dev/null
	rm -f heb.test
}

if [[ "$profile" == 1 ]]; then
	prof_base="${1:-BENCH_prof.json}"
	echo "profiling BenchmarkEngineStep (allocation attribution)..."
	engine_memprofile
	go run ./cmd/hebprof check -update -baseline "$prof_base" -sample alloc_space \
		-source "scripts/bench.sh -profile: go test -bench BenchmarkEngineStep -memprofile" \
		"$scratch/engine_mem.pprof"
	exit 0
fi

# run_set PROCS PATTERN RAW [FIXED_PATTERN] measures PATTERN, plus
# FIXED_PATTERN at -benchtime 20x in a process of its own, into RAW. A
# non-empty PROCS pins GOMAXPROCS for both.
run_set() {
	local procs="$1" pattern="$2" raw="$3" fixed="${4:-}"
	local env=()
	if [[ -n "$procs" ]]; then
		env=(env GOMAXPROCS="$procs")
	fi
	"${env[@]}" go test -run '^$' -bench "$pattern" -benchmem -count=1 . | tee "$raw"
	if [[ -n "$fixed" ]]; then
		"${env[@]}" go test -run '^$' -bench "$fixed" -benchmem -count=1 -benchtime 20x . | tee -a "$raw"
	fi
}

run_set '' 'BenchmarkMultiSeedSequential|BenchmarkMultiSeedParallel|BenchmarkEngineStep$|BenchmarkEngineReuse$' "$scratch/sweep.txt"
run_set 1 'BenchmarkEngineObsEnabled|BenchmarkEngineProbesEnabled|BenchmarkEngineManifestEnabled|BenchmarkEngineAlertsEnabled|BenchmarkEngineProfEnabled' "$scratch/obs.txt" \
	'BenchmarkEngineBare|BenchmarkEngineCheckpointEnabled|BenchmarkCheckpointDelta$'

update=(-update)
if [[ "$check" == 1 ]]; then
	update=()
fi
if ! go run ./cmd/hebwatch bench "${update[@]}" \
	"$scratch/sweep.txt" "$sweep_out" "$scratch/obs.txt" "$obs_out"; then
	echo "bench.sh: benchmark gate failed" >&2
	exit 1
fi

# Profile gate: with a committed top-frames baseline, re-attribute the
# engine hot loop and fail on new or grown frames.
if [[ "$check" == 1 && -f "$prof_base" ]]; then
	engine_memprofile
	if ! go run ./cmd/hebprof check -baseline "$prof_base" "$scratch/engine_mem.pprof"; then
		echo "bench.sh: profile regression against $prof_base" >&2
		exit 1
	fi
fi
