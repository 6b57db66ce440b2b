package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// realSweep and realObs are scripts/bench.sh's two sets as go test
// printed them on a 2-CPU box: the sweep set at the default GOMAXPROCS,
// so every name carries a -2 suffix, and the obs set at GOMAXPROCS=1,
// so none does. The obs set's fixed-20x process adds the custom
// ckptKB/op and deltaShare columns.
const realSweep = `goos: linux
goarch: amd64
pkg: heb
cpu: Intel(R) Xeon(R) Processor
BenchmarkEngineStep-2            	     424	   2903457 ns/op	   1239904 simSteps/s	  156173 B/op	     895 allocs/op
BenchmarkEngineReuse-2           	     595	   2686049 ns/op	   1340261 simSteps/s	    3345 B/op	      60 allocs/op
BenchmarkMultiSeedSequential-2   	      78	  14691315 ns/op	   1960347 simSteps/s	   39283 B/op	     540 allocs/op
BenchmarkMultiSeedParallel-2     	     162	   7736544 ns/op	   3722600 simSteps/s	   39752 B/op	     544 allocs/op
PASS
ok  	heb	9.754s
`

const realObs = `goos: linux
goarch: amd64
pkg: heb
cpu: Intel(R) Xeon(R) Processor
BenchmarkEngineObsEnabled      	     466	   2689405 ns/op	   1338589 simSteps/s	  163452 B/op	     909 allocs/op
BenchmarkEngineProbesEnabled   	     351	   3672909 ns/op	    980152 simSteps/s	  212444 B/op	     962 allocs/op
BenchmarkEngineManifestEnabled 	     442	   2746844 ns/op	   1310597 simSteps/s	  185567 B/op	    1059 allocs/op
BenchmarkEngineAlertsEnabled   	     208	   5322607 ns/op	    676362 simSteps/s	  159365 B/op	     923 allocs/op
BenchmarkEngineProfEnabled     	     729	   1492518 ns/op	   2418780 simSteps/s	  161964 B/op	     968 allocs/op
PASS
ok  	heb	8.580s
goos: linux
goarch: amd64
pkg: heb
cpu: Intel(R) Xeon(R) Processor
BenchmarkCheckpointDelta         	      20	   2329545 ns/op	       140.5 ckptKB/op	         0.8000 deltaShare	   1545425 simSteps/s	  353542 B/op	    1059 allocs/op
BenchmarkEngineBare              	      20	   1412018 ns/op	   2549738 simSteps/s	  156159 B/op	     895 allocs/op
BenchmarkEngineCheckpointEnabled 	      20	   2182885 ns/op	   1649257 simSteps/s	  353353 B/op	    1058 allocs/op
PASS
ok  	heb	0.134s
`

// awkSweep and awkObs are the committed layout for those two outputs,
// as bench.sh's earlier awk writer produced it; the gate's writer must
// match it byte for byte.
const awkSweep = `{"benchmarks": [
  {"name":"BenchmarkEngineStep","ns_per_op":2903457,"allocs_per_op":895,"bytes_per_op":156173,"sim_steps_per_second":1239904},
  {"name":"BenchmarkEngineReuse","ns_per_op":2686049,"allocs_per_op":60,"bytes_per_op":3345,"sim_steps_per_second":1340261},
  {"name":"BenchmarkMultiSeedSequential","ns_per_op":14691315,"allocs_per_op":540,"bytes_per_op":39283,"sim_steps_per_second":1960347},
  {"name":"BenchmarkMultiSeedParallel","ns_per_op":7736544,"allocs_per_op":544,"bytes_per_op":39752,"sim_steps_per_second":3722600}
]}
`

const awkObs = `{"benchmarks": [
  {"name":"BenchmarkEngineObsEnabled","ns_per_op":2689405,"allocs_per_op":909,"bytes_per_op":163452,"sim_steps_per_second":1338589},
  {"name":"BenchmarkEngineProbesEnabled","ns_per_op":3672909,"allocs_per_op":962,"bytes_per_op":212444,"sim_steps_per_second":980152},
  {"name":"BenchmarkEngineManifestEnabled","ns_per_op":2746844,"allocs_per_op":1059,"bytes_per_op":185567,"sim_steps_per_second":1310597},
  {"name":"BenchmarkEngineAlertsEnabled","ns_per_op":5322607,"allocs_per_op":923,"bytes_per_op":159365,"sim_steps_per_second":676362},
  {"name":"BenchmarkEngineProfEnabled","ns_per_op":1492518,"allocs_per_op":968,"bytes_per_op":161964,"sim_steps_per_second":2418780},
  {"name":"BenchmarkCheckpointDelta","ns_per_op":2329545,"allocs_per_op":1059,"bytes_per_op":353542,"sim_steps_per_second":1545425},
  {"name":"BenchmarkEngineBare","ns_per_op":1412018,"allocs_per_op":895,"bytes_per_op":156159,"sim_steps_per_second":2549738},
  {"name":"BenchmarkEngineCheckpointEnabled","ns_per_op":2182885,"allocs_per_op":1058,"bytes_per_op":353353,"sim_steps_per_second":1649257}
]}
`

func mustParse(t *testing.T, text string) []benchRow {
	t.Helper()
	rows, err := parseBench(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestParseBench(t *testing.T) {
	sweep := mustParse(t, realSweep)
	if len(sweep) != 4 {
		t.Fatalf("sweep rows = %d, want 4", len(sweep))
	}
	step := sweep[0]
	if step.name != "BenchmarkEngineStep" || step.procs != 2 {
		t.Fatalf("first sweep row = %s at %d procs", step.name, step.procs)
	}
	for unit, want := range map[string]string{
		"ns/op": "2903457", "simSteps/s": "1239904", "B/op": "156173", "allocs/op": "895",
	} {
		if got := step.cols[unit]; got != want {
			t.Errorf("EngineStep %s = %q, want %q", unit, got, want)
		}
	}
	obs := byName(mustParse(t, realObs))
	if len(obs) != 8 {
		t.Fatalf("obs rows = %d, want 8", len(obs))
	}
	delta := obs["BenchmarkCheckpointDelta"]
	if delta.procs != 1 || delta.cols["ckptKB/op"] != "140.5" || delta.cols["deltaShare"] != "0.8000" {
		t.Fatalf("CheckpointDelta = %+v", delta)
	}
	if v, ok := delta.num("deltaShare"); !ok || v != 0.8 {
		t.Fatalf("deltaShare = %v, %v", v, ok)
	}
	// Only a trailing all-digit suffix is a proc count.
	for line, want := range map[string]benchRow{
		"BenchmarkSize/n-10-4 \t 1\t 5 ns/op": {name: "BenchmarkSize/n-10", procs: 4},
		"BenchmarkSize/v-x \t 1\t 5 ns/op":    {name: "BenchmarkSize/v-x", procs: 1},
		"BenchmarkSize/v-+3 \t 1\t 5 ns/op":   {name: "BenchmarkSize/v-+3", procs: 1},
	} {
		got := mustParse(t, line)[0]
		if got.name != want.name || got.procs != want.procs {
			t.Errorf("%q parsed as %s at %d procs", line, got.name, got.procs)
		}
	}
}

func TestWriteBaselineLayout(t *testing.T) {
	if got := string(writeBaseline(mustParse(t, realSweep))); got != awkSweep {
		t.Errorf("sweep baseline:\n%s\nwant:\n%s", got, awkSweep)
	}
	if got := string(writeBaseline(mustParse(t, realObs))); got != awkObs {
		t.Errorf("obs baseline:\n%s\nwant:\n%s", got, awkObs)
	}
	// The committed baselines load and write back byte for byte.
	for _, path := range []string{"../../BENCH_sweep.json", "../../BENCH_obs.json"} {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := loadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := writeBaseline(rows); !bytes.Equal(got, want) {
			t.Errorf("%s rewritten:\n%s\nwant:\n%s", path, got, want)
		}
	}
	// An unmeasured column is written as null.
	rows := mustParse(t, "BenchmarkX \t 1\t 5 ns/op")
	if got, want := string(writeBaseline(rows)), "{\"benchmarks\": [\n  "+
		`{"name":"BenchmarkX","ns_per_op":5,"allocs_per_op":null,"bytes_per_op":null,"sim_steps_per_second":null}`+
		"\n]}\n"; got != want {
		t.Errorf("null columns:\n%s\nwant:\n%s", got, want)
	}
}

// measured is the real run of both sets, changed by edit.
func measured(t *testing.T, edit func(map[string]benchRow)) map[string]benchRow {
	t.Helper()
	cur := byName(mustParse(t, realSweep+realObs))
	if edit != nil {
		edit(cur)
	}
	return cur
}

func set(bench, unit, value string) func(map[string]benchRow) {
	return func(m map[string]benchRow) { m[bench].cols[unit] = value }
}

func unset(bench, unit string) func(map[string]benchRow) {
	return func(m map[string]benchRow) { delete(m[bench].cols, unit) }
}

func drop(bench string) func(map[string]benchRow) {
	return func(m map[string]benchRow) { delete(m, bench) }
}

// atProcs re-labels the multi-seed pair as measured on n procs and sets
// the parallel run's ns/op.
func atProcs(n int, parallelNs string) func(map[string]benchRow) {
	return func(m map[string]benchRow) {
		for _, name := range []string{"BenchmarkMultiSeedSequential", "BenchmarkMultiSeedParallel"} {
			r := m[name]
			r.procs = n
			m[name] = r
		}
		m["BenchmarkMultiSeedParallel"].cols["ns/op"] = parallelNs
	}
}

func TestBaselineRules(t *testing.T) {
	base := mustParse(t, realSweep+realObs)
	for _, tc := range []struct {
		name     string
		edit     func(map[string]benchRow)
		findings int
		want     string
	}{
		{"identical run", nil, 0, ""},
		{"exact row allocs +1", set("BenchmarkEngineStep", "allocs/op", "896"), 1, "must match exactly"},
		{"exact row allocs -1", set("BenchmarkEngineObsEnabled", "allocs/op", "908"), 1, "must match exactly"},
		{"MultiSeed allocs +2", set("BenchmarkMultiSeedSequential", "allocs/op", "542"), 0, ""},
		{"MultiSeed allocs +8", set("BenchmarkMultiSeedSequential", "allocs/op", "548"), 0, ""},
		{"MultiSeed allocs +9", set("BenchmarkMultiSeedSequential", "allocs/op", "549"), 1, "slack is +/-8"},
		{"MultiSeed allocs -9", set("BenchmarkMultiSeedParallel", "allocs/op", "535"), 1, "slack is +/-8"},
		{"EngineProf allocs +8", set("BenchmarkEngineProfEnabled", "allocs/op", "976"), 0, ""},
		{"EngineProf allocs +9", set("BenchmarkEngineProfEnabled", "allocs/op", "977"), 1, "slack is +/-8"},
		{"ns/op at 1.5x", set("BenchmarkEngineStep", "ns/op", "4355185.5"), 0, ""},
		{"ns/op past 1.5x", set("BenchmarkEngineStep", "ns/op", "4355186"), 1, "by more than 1.5x"},
		{"row not measured", drop("BenchmarkEngineReuse"), 1, "MISSING BenchmarkEngineReuse"},
		{"row without ns/op", unset("BenchmarkEngineBare", "ns/op"), 1, "MISSING BenchmarkEngineBare"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if n := compareBaseline(&out, measured(t, tc.edit), base); n != tc.findings || !strings.Contains(out.String(), tc.want) {
				t.Fatalf("%d findings, want %d with %q:\n%s", n, tc.findings, tc.want, out.String())
			}
		})
	}
}

func TestTargets(t *testing.T) {
	// The real run: Sequential 14691315 ns/op, Bare 1412018, so the
	// overhead limit is 2541632.4 ns/op.
	for _, tc := range []struct {
		name     string
		edit     func(map[string]benchRow)
		findings int
		want     string
	}{
		{"real run", nil, 0, "skipped: measured at 2 procs"},
		{"Reuse at 99 allocs", set("BenchmarkEngineReuse", "allocs/op", "99"), 0, ""},
		{"Reuse at 100 allocs", set("BenchmarkEngineReuse", "allocs/op", "100"), 1, "allocs/op 100, target < 100"},
		{"CheckpointEnabled under 400000 B/op", set("BenchmarkEngineCheckpointEnabled", "B/op", "399999"), 0, ""},
		{"CheckpointEnabled at 400000 B/op", set("BenchmarkEngineCheckpointEnabled", "B/op", "400000"), 1, "B/op 400000, target < 400000"},
		{"Delta under 400000 B/op", set("BenchmarkCheckpointDelta", "B/op", "399999"), 0, ""},
		{"Delta at 400000 B/op", set("BenchmarkCheckpointDelta", "B/op", "400000"), 1, "TARGET BenchmarkCheckpointDelta: B/op"},
		{"deltaShare 0.5", set("BenchmarkCheckpointDelta", "deltaShare", "0.5"), 0, ""},
		{"deltaShare 0.49", set("BenchmarkCheckpointDelta", "deltaShare", "0.49"), 1, "deltaShare 0.49, target >= 0.5"},
		{"overhead at the limit", set("BenchmarkEngineCheckpointEnabled", "ns/op", "2541632"), 0, ""},
		{"overhead over the limit", set("BenchmarkEngineCheckpointEnabled", "ns/op", "2541633"), 1, "x BenchmarkEngineBare"},
		{"2x speedup on 4 procs", atProcs(4, "7345657.5"), 0, ""},
		{"1.9x speedup on 4 procs", atProcs(4, "7732271"), 1, "x BenchmarkMultiSeedSequential"},
		{"no speedup on 1 proc", atProcs(1, "14691315"), 0, "skipped: measured at 1 procs"},
		{"Bare not measured", drop("BenchmarkEngineBare"), 1, "not measured"},
		{"deltaShare not measured", unset("BenchmarkCheckpointDelta", "deltaShare"), 1, "not measured"},
		{"Reuse not measured", drop("BenchmarkEngineReuse"), 1, "not measured"},
		{"unarmed speedup not measured", drop("BenchmarkMultiSeedParallel"), 1, "not measured"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if n := checkTargets(&out, measured(t, tc.edit)); n != tc.findings || !strings.Contains(out.String(), tc.want) {
				t.Fatalf("%d findings, want %d with %q:\n%s", n, tc.findings, tc.want, out.String())
			}
		})
	}
}

func writeFile(t *testing.T, path, body string) string {
	t.Helper()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchDrift(t *testing.T) {
	dir := t.TempDir()
	sweep := writeFile(t, filepath.Join(dir, "sweep.txt"), realSweep)
	obs := writeFile(t, filepath.Join(dir, "obs.txt"), realObs)
	baseSweep, baseObs := filepath.Join(dir, "sweep.json"), filepath.Join(dir, "obs.json")

	// -update writes each baseline from its own output.
	var sb strings.Builder
	if _, err := bench(&sb, []string{sweep, baseSweep, obs, baseObs}, true); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(baseObs); string(got) != awkObs {
		t.Fatalf("-update wrote:\n%s", got)
	}

	// The same output then checks clean.
	sb.Reset()
	criticals, err := bench(&sb, []string{sweep, baseSweep, obs, baseObs}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out := sb.String(); criticals != 0 || strings.Count(out, "within tolerance") != 2 || !strings.Contains(out, "targets: hold") {
		t.Fatalf("self-check dirty (%d criticals):\n%s", criticals, out)
	}

	// Alloc drift is critical even when ns/op is fine; ns/op blowups and
	// missing benchmarks count too, in either set.
	writeFile(t, sweep, strings.Replace(realSweep, "2903457 ns/op\t   1239904 simSteps/s\t  156173 B/op\t     895",
		"4903457 ns/op\t   1239904 simSteps/s\t  156173 B/op\t     900", 1))
	var kept []string
	for _, line := range strings.Split(realObs, "\n") {
		if !strings.HasPrefix(line, "BenchmarkEngineAlertsEnabled") {
			kept = append(kept, line)
		}
	}
	writeFile(t, obs, strings.Join(kept, "\n"))
	sb.Reset()
	criticals, err = bench(&sb, []string{sweep, baseSweep, obs, baseObs}, false)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if criticals != 3 {
		t.Fatalf("criticals = %d, want 3 (allocs, ns, missing):\n%s", criticals, out)
	}
	for _, want := range []string{"must match exactly", "by more than", "not measured", "REGRESSED"} {
		if !strings.Contains(out, want) {
			t.Errorf("bench output missing %q:\n%s", want, out)
		}
	}
}

func TestBenchBadFiles(t *testing.T) {
	dir := t.TempDir()
	sweep := writeFile(t, filepath.Join(dir, "sweep.txt"), realSweep)
	good := writeFile(t, filepath.Join(dir, "good.json"), awkSweep)
	for name, args := range map[string][]string{
		"missing output":    {filepath.Join(dir, "missing.txt"), good},
		"missing baseline":  {sweep, filepath.Join(dir, "missing.json")},
		"no benchmark rows": {writeFile(t, filepath.Join(dir, "fail.txt"), "--- FAIL: BenchmarkX\nFAIL\n"), good},
		"corrupt baseline":  {sweep, writeFile(t, filepath.Join(dir, "bad.json"), "{not json")},
		"empty baseline":    {sweep, writeFile(t, filepath.Join(dir, "empty.json"), `{"benchmarks": []}`)},
		"nameless row":      {sweep, writeFile(t, filepath.Join(dir, "noname.json"), `{"benchmarks": [{"ns_per_op":1}]}`)},
	} {
		if _, err := bench(io.Discard, args, false); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCommittedBaselinesPassTheGate keeps the committed baselines usable:
// they load through the gate, compare clean against themselves, and
// between them name every benchmark a target reads, so renaming a
// benchmark cannot disarm a target unnoticed.
func TestCommittedBaselinesPassTheGate(t *testing.T) {
	named := map[string]bool{}
	for _, path := range []string{"../../BENCH_sweep.json", "../../BENCH_obs.json"} {
		base, err := loadBaseline(path)
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if n := compareBaseline(&out, byName(base), base); n != 0 {
			t.Errorf("%s self-compare: %d findings\n%s", path, n, out.String())
		}
		for _, r := range base {
			named[r.name] = true
		}
	}
	for _, tg := range benchTargets {
		for _, name := range []string{tg.bench, tg.ref} {
			if name != "" && !named[name] {
				t.Errorf("target on %s %s reads %s, which no committed baseline measures", tg.bench, tg.unit, name)
			}
		}
	}
}
