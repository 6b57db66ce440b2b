package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// The benchmark gate. scripts/bench.sh measures each benchmark set with
// `go test -bench -benchmem` and hands the text here together with the
// committed baseline it is held to. Every baseline row must be measured
// again within the tolerances below, and the run as a whole must meet
// benchTargets, which do not move with the baselines.

// nsTol is the wall-clock noise allowance. A baseline row's ns/op may
// grow by at most this factor: wall clock is noisy across machines, so
// only gross regressions fail. The checkpoint-overhead target allows the
// same factor on top of its 1.2x.
const nsTol = 1.5

// allocSlack is how far a benchmark's allocs/op may drift from its
// baseline. Allocation counts are deterministic, so it is zero, with two
// exceptions that wobble by a few allocs across runs: the multi-seed
// pair, whose pooled run state rides sync.Pools the GC is free to clear
// mid-run, and the Prof benchmark, whose runtime/pprof sampling buffers
// grow with nondeterministic sample counts.
func allocSlack(name string) float64 {
	if strings.Contains(name, "MultiSeed") || strings.Contains(name, "EngineProf") {
		return allocWobble
	}
	return 0
}

const allocWobble = 8

// benchTarget is an absolute bound on the measured run: bench's unit
// column must stand in relation op to bound, times ref's value in the
// same unit when ref is set. A target fails when a benchmark it reads
// was not measured, and holds vacuously when bench ran on fewer than
// minProcs procs.
type benchTarget struct {
	bench, unit, op string
	bound           float64
	ref             string
	minProcs        int
}

var benchTargets = []benchTarget{
	// Pooled run-state reuse keeps construct/step/finish allocation-free.
	{bench: "BenchmarkEngineReuse", unit: "allocs/op", op: "<", bound: 100},
	// The delta chain's allocation budget; full-state chains cost ~2.2 MB/op.
	{bench: "BenchmarkEngineCheckpointEnabled", unit: "B/op", op: "<", bound: 400000},
	{bench: "BenchmarkCheckpointDelta", unit: "B/op", op: "<", bound: 400000},
	// Deltas, not keyframes, must dominate the chain.
	{bench: "BenchmarkCheckpointDelta", unit: "deltaShare", op: ">=", bound: 0.5},
	// Checkpointing costs at most 1.2x the bare engine, plus the noise
	// allowance: a single-core box measures ~1.45x.
	{bench: "BenchmarkEngineCheckpointEnabled", unit: "ns/op", op: "<=", bound: 1.2 * nsTol, ref: "BenchmarkEngineBare"},
	// Parallel sweeps are at least 2x sequential ones, given the cores.
	{bench: "BenchmarkMultiSeedParallel", unit: "ns/op", op: "<=", bound: 0.5, ref: "BenchmarkMultiSeedSequential", minProcs: 4},
}

// holds reports whether v stands in relation t.op to limit.
func (t benchTarget) holds(v, limit float64) bool {
	switch t.op {
	case "<":
		return v < limit
	case "<=":
		return v <= limit
	case ">=":
		return v >= limit
	}
	return false
}

// benchRow is one benchmark's measurement: each unit column's value as
// go test printed it, so the baseline writer copies it byte for byte.
type benchRow struct {
	name  string
	procs int               // GOMAXPROCS of the run: the name's -N suffix, 1 without one
	cols  map[string]string // unit ("ns/op", "allocs/op", "deltaShare", ...) -> value
}

// num returns the value of a unit column and whether it was measured.
func (r benchRow) num(unit string) (float64, bool) {
	s, ok := r.cols[unit]
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

// parseBench reads `go test -bench -benchmem` output. Every line that
// starts with "Benchmark" is a row: the name, the iteration count, then
// value/unit pairs.
func parseBench(r io.Reader) ([]benchRow, error) {
	var rows []benchRow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		if !strings.HasPrefix(sc.Text(), "Benchmark") {
			continue
		}
		f := strings.Fields(sc.Text())
		row := benchRow{name: f[0], procs: 1, cols: map[string]string{}}
		if i := strings.LastIndexByte(row.name, '-'); i > 0 {
			suffix := row.name[i+1:]
			if n, err := strconv.Atoi(suffix); err == nil && strings.Trim(suffix, "0123456789") == "" {
				row.name, row.procs = row.name[:i], n
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			row.cols[f[i+1]] = f[i]
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

// readBench parses a file of go test output; it must hold a row.
func readBench(path string) ([]benchRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := parseBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("%s: no benchmark rows", path)
	}
	return rows, nil
}

// baselineCols is the committed BENCH_*.json layout: after the name, one
// key per unit column in this order, null when it was not measured.
var baselineCols = []struct{ key, unit string }{
	{"ns_per_op", "ns/op"},
	{"allocs_per_op", "allocs/op"},
	{"bytes_per_op", "B/op"},
	{"sim_steps_per_second", "simSteps/s"},
}

// writeBaseline renders rows in the committed layout, in their order.
func writeBaseline(rows []benchRow) []byte {
	var b bytes.Buffer
	b.WriteString("{\"benchmarks\": [\n  ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(",\n  ")
		}
		b.WriteString(`{"name":"` + r.name + `"`)
		for _, c := range baselineCols {
			v, ok := r.cols[c.unit]
			if !ok {
				v = "null"
			}
			fmt.Fprintf(&b, `,"%s":%s`, c.key, v)
		}
		b.WriteString("}")
	}
	b.WriteString("\n]}\n")
	return b.Bytes()
}

// loadBaseline reads a committed BENCH_*.json file.
func loadBaseline(path string) ([]benchRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Benchmarks []map[string]json.RawMessage `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	rows := make([]benchRow, 0, len(f.Benchmarks))
	for _, m := range f.Benchmarks {
		row := benchRow{procs: 1, cols: map[string]string{}}
		if json.Unmarshal(m["name"], &row.name) != nil || strings.TrimSpace(row.name) == "" {
			return nil, fmt.Errorf("%s: benchmark with empty name", path)
		}
		for _, c := range baselineCols {
			if v := string(m[c.key]); v != "" && v != "null" {
				row.cols[c.unit] = v
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// byName indexes rows by benchmark name; a later row wins.
func byName(rows []benchRow) map[string]benchRow {
	out := make(map[string]benchRow, len(rows))
	for _, r := range rows {
		out[r.name] = r
	}
	return out
}

// compareBaseline holds the current run to every baseline row: it must
// have been measured, its allocs/op must match within allocSlack and its
// ns/op may grow by at most nsTol. It returns the number of findings.
func compareBaseline(w io.Writer, cur map[string]benchRow, base []benchRow) int {
	findings := 0
	for _, b := range base {
		c := cur[b.name]
		cn, ok := c.num("ns/op")
		if !ok {
			fmt.Fprintf(w, "MISSING %s: in baseline but not measured\n", b.name)
			findings++
			continue
		}
		ca, _ := c.num("allocs/op")
		ba, _ := b.num("allocs/op")
		if slack := allocSlack(b.name); math.Abs(ca-ba) > slack {
			rule := "must match exactly"
			if slack > 0 {
				rule = fmt.Sprintf("pool-wobble slack is +/-%g", slack)
			}
			fmt.Fprintf(w, "REGRESSION %s: allocs/op %s, baseline %s (%s)\n", b.name, c.cols["allocs/op"], b.cols["allocs/op"], rule)
			findings++
		}
		if bn, _ := b.num("ns/op"); bn > 0 && cn > bn*nsTol {
			fmt.Fprintf(w, "REGRESSION %s: ns/op %s exceeds baseline %s by more than %gx\n", b.name, c.cols["ns/op"], b.cols["ns/op"], nsTol)
			findings++
		}
	}
	return findings
}

// checkTargets holds the current run to benchTargets and returns the
// number of violations.
func checkTargets(w io.Writer, cur map[string]benchRow) int {
	findings := 0
	for _, t := range benchTargets {
		v, ok := cur[t.bench].num(t.unit)
		limit, rule := t.bound, fmt.Sprintf("%s %g", t.op, t.bound)
		if t.ref != "" {
			r, rok := cur[t.ref].num(t.unit)
			ok = ok && rok
			limit *= r
			rule = fmt.Sprintf("%s %g x %s (%s %s)", t.op, t.bound, t.ref, cur[t.ref].cols[t.unit], t.unit)
		}
		switch {
		case !ok:
			fmt.Fprintf(w, "TARGET %s %s %s: not measured\n", t.bench, t.unit, rule)
			findings++
		case cur[t.bench].procs < t.minProcs:
			fmt.Fprintf(w, "note: target %s %s %s skipped: measured at %d procs, needs >= %d\n",
				t.bench, t.unit, rule, cur[t.bench].procs, t.minProcs)
		case !t.holds(v, limit):
			fmt.Fprintf(w, "TARGET %s: %s %s, target %s\n", t.bench, t.unit, cur[t.bench].cols[t.unit], rule)
			findings++
		}
	}
	return findings
}

// bench gates go test output against committed baselines. args pairs
// each output file with the baseline file it measures; the targets read
// all outputs together. With update, it writes each baseline from its
// output instead and checks nothing.
func bench(w io.Writer, args []string, update bool) (int, error) {
	all := map[string]benchRow{}
	findings := 0
	for i := 0; i+1 < len(args); i += 2 {
		rows, err := readBench(args[i])
		if err != nil {
			return 0, err
		}
		if update {
			if err := os.WriteFile(args[i+1], writeBaseline(rows), 0o644); err != nil {
				return 0, err
			}
			fmt.Fprintf(w, "wrote %s\n", args[i+1])
			continue
		}
		base, err := loadBaseline(args[i+1])
		if err != nil {
			return 0, err
		}
		cur := byName(rows)
		n := compareBaseline(w, cur, base)
		fmt.Fprintf(w, "hebwatch: %d benchmarks vs %s: %s (%d findings; allocs exact, +/-%d on MultiSeed*/EngineProf*, ns/op <= %gx)\n",
			len(base), args[i+1], verdict(n, "within tolerance", "REGRESSED"), n, allocWobble, nsTol)
		findings += n
		for name, r := range cur {
			all[name] = r
		}
	}
	if update {
		return 0, nil
	}
	n := checkTargets(w, all)
	fmt.Fprintf(w, "hebwatch: %d targets: %s (%d findings)\n", len(benchTargets), verdict(n, "hold", "VIOLATED"), n)
	return findings + n, nil
}

func verdict(findings int, ok, bad string) string {
	if findings > 0 {
		return bad
	}
	return ok
}
