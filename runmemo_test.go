package heb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"heb/internal/forecast"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/runner"
	"heb/internal/sim"
	"heb/internal/units"
)

const memoTestDuration = 30 * time.Minute

func memoTestWorkload(t *testing.T) Workload {
	t.Helper()
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	return w.WithDuration(memoTestDuration)
}

// memoTestFeed is a renewable feed over a ramp that differs from the
// default one at sample i when bump is non-zero.
func memoTestFeed(i int, bump units.Power) *power.TraceFeed {
	samples := make([]units.Power, 180)
	for k := range samples {
		samples[k] = units.Power(120 + 2*k)
	}
	samples[i] += bump
	return power.MustNewTraceFeed("solar", 10*time.Second, samples)
}

// sameResult fails unless got equals want bit for bit: reflect.DeepEqual
// treats 0 and -0 as equal, so the Go-syntax renderings (which print
// every float exactly, sign of zero included) are compared as well.
func sameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: memoized result differs from a fresh run:\n got %+v\nwant %+v", label, got, want)
		return
	}
	if g, w := fmt.Sprintf("%#v", got), fmt.Sprintf("%#v", want); g != w {
		t.Errorf("%s: memoized result differs from a fresh run in float bits:\n got %s\nwant %s", label, g, w)
	}
}

// TestRunMemoMatchesFreshRuns checks that both the simulating request
// and later hits return exactly what a memo-free run returns, across
// utility, budget-override and solar-feed runs, and that a caller
// mutating its copy cannot corrupt the stored result.
func TestRunMemoMatchesFreshRuns(t *testing.T) {
	w := memoTestWorkload(t)
	cases := []struct {
		name string
		id   SchemeID
		opts func() RunOptions
	}{
		{"utility", HEBD, func() RunOptions { return RunOptions{Duration: memoTestDuration} }},
		{"low budget", BaFirst, func() RunOptions { return RunOptions{Duration: memoTestDuration, Budget: 238} }},
		{"solar", HEBS, func() RunOptions {
			return RunOptions{Duration: memoTestDuration, Feed: memoTestFeed(0, 0), Renewable: true}
		}},
	}
	memo := NewRunMemo()
	for _, c := range cases {
		fresh, err := DefaultPrototype().Run(c.id, w, c.opts())
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultPrototype()
		p.Memo = memo
		for i := 0; i < 2; i++ {
			got, err := p.Run(c.id, w, c.opts())
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, fmt.Sprintf("%s request %d", c.name, i+1), got, fresh)
			if len(got.SlotPeaks) == 0 {
				t.Fatalf("%s: no slot peaks to alias", c.name)
			}
			got.SlotPeaks[0] = -1
		}
	}
	if hits, misses := memo.Stats(); hits != len(cases) || misses != len(cases) {
		t.Errorf("stats = %d hits / %d misses, want %d / %d", hits, misses, len(cases), len(cases))
	}
}

// TestRunMemoHitAddsNoProgress checks that Progress counts simulated
// steps only: a hit simulates nothing.
func TestRunMemoHitAddsNoProgress(t *testing.T) {
	w := memoTestWorkload(t)
	p := DefaultPrototype()
	p.Memo = NewRunMemo()
	p.Progress = &runner.Progress{}
	opts := RunOptions{Duration: memoTestDuration}
	res, err := p.Run(SCFirst, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(SCFirst, w, opts); err != nil {
		t.Fatal(err)
	}
	if got := p.Progress.Snapshot().Units; got != int64(res.Steps) {
		t.Errorf("progress units %d after a miss and a hit, want one run's %d steps", got, res.Steps)
	}
}

// TestRunMemoConcurrentRequestsSimulateOnce has several goroutines ask
// for one configuration at once (run it under -race): exactly one
// simulates and every requester gets its result.
func TestRunMemoConcurrentRequestsSimulateOnce(t *testing.T) {
	w := memoTestWorkload(t)
	p := DefaultPrototype()
	p.Memo = NewRunMemo()
	p.Progress = &runner.Progress{}
	opts := RunOptions{Duration: memoTestDuration}
	const n = 6
	results := make([]sim.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = p.Run(HEBD, w, opts)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sameResult(t, fmt.Sprintf("requester %d", i), results[i], results[0])
	}
	if hits, misses := p.Memo.Stats(); hits != n-1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want %d / 1", hits, misses, n-1)
	}
	if got := p.Progress.Snapshot().Units; got != int64(results[0].Steps) {
		t.Errorf("progress units %d, want one simulation's %d steps", got, results[0].Steps)
	}
}

// TestRunMemoBypass checks that every instrument and injection takes the
// fresh path, while Progress, which only counts, does not.
func TestRunMemoBypass(t *testing.T) {
	w := memoTestWorkload(t)
	tr, err := w.Trace(DefaultPrototype())
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		p    Prototype
		w    Workload
		opts RunOptions
	}
	cases := []struct {
		name   string
		mutate func(*run)
	}{
		{"capture", func(r *run) { r.p.Capture = obs.NewCapture() }},
		{"tracer", func(r *run) { r.p.Tracer = obs.NewTracer() }},
		{"audit", func(r *run) { r.p.Audit = obs.AuditModeReport }},
		{"alerts", func(r *run) { r.p.Alert = alerts.ModeReport }},
		{"probes", func(r *run) { r.p.ProbeEvery = 60 }},
		{"checkpoints", func(r *run) { r.p.CheckpointEvery = 1 }},
		{"observer", func(r *run) { r.opts.Observer = func(sim.StepInfo) {} }},
		{"events", func(r *run) { r.opts.Events = obs.NewLog(0) }},
		{"decision trace", func(r *run) { r.opts.DecisionTrace = func(obs.DecisionRecord) {} }},
		{"checkpoint sink", func(r *run) { r.opts.CheckpointSink = func(obs.CheckpointRecord) {} }},
		{"table sink", func(r *run) { r.opts.TableSink = func(*pat.Table) {} }},
		{"table", func(r *run) { r.opts.Table = pat.MustNew(pat.DefaultConfig()) }},
		{"peak predictor", func(r *run) { r.opts.PeakPredictor = forecast.NewNaive() }},
		{"valley predictor", func(r *run) { r.opts.ValleyPredictor = forecast.NewNaive() }},
		{"max steps", func(r *run) { r.opts.MaxSteps = 10 }},
		{"resume", func(r *run) { r.opts.ResumeCheckpoints = []obs.CheckpointRecord{{}} }},
		{"trace-backed workload", func(r *run) { r.w = WorkloadFromTrace(tr) }},
		{"foreign feed", func(r *run) { r.opts.Feed = power.MustNewUtilityFeed(280) }},
	}
	base := func() run {
		p := DefaultPrototype()
		p.Memo = NewRunMemo()
		return run{p: p, w: w, opts: RunOptions{Duration: memoTestDuration}}
	}
	r := base()
	r.p.Progress = &runner.Progress{}
	if _, ok := r.p.memoKey(HEBD, r.w, r.opts); !ok {
		t.Fatal("a run observed only by Progress bypasses the memo")
	}
	for _, c := range cases {
		r := base()
		c.mutate(&r)
		if _, ok := r.p.memoKey(HEBD, r.w, r.opts); ok {
			t.Errorf("%s: run is memoized, want the fresh path", c.name)
		}
	}

	// Profile labels switch on process-wide with a collector window.
	col := prof.NewCollector(t.TempDir(), []string{"heap"})
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	r = base()
	_, ok := r.p.memoKey(HEBD, r.w, r.opts)
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("profiled run is memoized, want the fresh path")
	}

	// End to end: a bypassing run leaves the memo untouched.
	r = base()
	r.opts.Observer = func(sim.StepInfo) {}
	if _, err := r.p.Run(HEBD, r.w, r.opts); err != nil {
		t.Fatal(err)
	}
	if hits, misses := r.p.Memo.Stats(); hits+misses != 0 {
		t.Errorf("observed run touched the memo: %d hits / %d misses", hits, misses)
	}
}

// TestRunMemoKey checks what the key separates and what it ignores.
func TestRunMemoKey(t *testing.T) {
	w := memoTestWorkload(t)
	key := func(p Prototype, opts RunOptions) memoKey {
		t.Helper()
		p.Memo = NewRunMemo()
		k, ok := p.memoKey(HEBD, w, opts)
		if !ok {
			t.Fatal("pure run bypasses the memo")
		}
		return k
	}
	// The PAT's mismatch range follows p.Budget while the feed follows
	// the override, so the two pairings are different runs.
	hi, lo := DefaultPrototype(), DefaultPrototype()
	hi.Budget, lo.Budget = 280, 238
	overridden := RunOptions{Duration: memoTestDuration, Budget: 238}
	plain := RunOptions{Duration: memoTestDuration}
	if key(hi, overridden) == key(lo, plain) {
		t.Error("(p.Budget 280, opts.Budget 238) and (p.Budget 238, no override) share a key")
	}
	if key(hi, overridden) == key(hi, plain) {
		t.Error("a budget override does not separate keys")
	}
	memo := NewRunMemo()
	for _, c := range []struct {
		p    Prototype
		opts RunOptions
	}{{hi, overridden}, {lo, plain}} {
		fresh, err := c.p.Run(HEBD, w, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		c.p.Memo = memo
		got, err := c.p.Run(HEBD, w, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("budget %v override %v", c.p.Budget, c.opts.Budget), got, fresh)
	}

	solar := func(f *power.TraceFeed) RunOptions {
		return RunOptions{Duration: memoTestDuration, Feed: f, Renewable: true}
	}
	p := DefaultPrototype()
	if key(p, solar(memoTestFeed(0, 0))) != key(p, solar(memoTestFeed(0, 0))) {
		t.Error("two feeds with the same content get different keys")
	}
	if key(p, solar(memoTestFeed(97, 0))) == key(p, solar(memoTestFeed(97, 1e-9))) {
		t.Error("feeds differing in one sample share a key")
	}

	cell := DefaultPrototype()
	cell.TraceCell = "fig12c"
	if key(p, plain) != key(cell, plain) {
		t.Error("TraceCell separates keys; experiments would not share runs")
	}
}

// TestRunKeysUnchangedByMemo pins run keys recorded before Prototype
// gained its Memo field: capture artifacts carry these keys, so the
// field must not move them.
func TestRunKeysUnchangedByMemo(t *testing.T) {
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultPrototype()
	p.Memo = NewRunMemo()
	p.Progress = &runner.Progress{}
	if got, want := p.runKey(HEBD, w, time.Hour, RunOptions{Budget: 238}),
		"HEB-D|PR|1h0m0s|seed=42|n=6|budget=238|storage=120|scratio=0.3|topo=0|feed=utility|renew=false|noise=0|preage=0|cfg=828ff11d666cc15d"; got != want {
		t.Errorf("run key\n got %s\nwant %s", got, want)
	}
	p.TraceCell = "fig12a"
	if got, want := p.runKey(BaOnly, w, 24*time.Hour, RunOptions{}),
		"BaOnly|PR|24h0m0s|seed=42|n=6|budget=280|storage=120|scratio=0.3|topo=0|feed=utility|renew=false|noise=0|preage=0|cfg=3154c73bd627340d"; got != want {
		t.Errorf("run key with trace cell\n got %s\nwant %s", got, want)
	}
}

// TestScaleOutStudyTimesRunsUnderMemo checks that the study keeps
// timing real simulations when its prototype carries a memo: a repeated
// factor would otherwise read a memoized result in no time.
func TestScaleOutStudyTimesRunsUnderMemo(t *testing.T) {
	p := DefaultPrototype()
	p.Memo = NewRunMemo()
	pts, err := ScaleOutStudy(p, []int{1, 1, 2}, 20*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.WallClock <= 0 || pt.SimStepsPerSecond <= 0 {
			t.Errorf("%d servers: wall clock %v, %.0f steps/s; want a timed run", pt.Servers, pt.WallClock, pt.SimStepsPerSecond)
		}
	}
	if hits, misses := p.Memo.Stats(); hits+misses != 0 {
		t.Errorf("scale-out runs touched the memo: %d hits / %d misses", hits, misses)
	}
}
