package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"heb"
	"heb/internal/obs"
	"heb/internal/obs/prof"
	"heb/internal/workload"
)

// Recording limits: every fourth step of the recorded runs, at most two
// simulated days of steps, keeps the replay short while covering a full
// diurnal solar cycle.
const (
	recordStride   = 4
	recordMaxSteps = 2 * 86400 / recordStride
)

// tracedRun is one workload executed in-process under observation: a
// wall-clock span tracer on the prototype, a CPU profile, runtime memory
// statistics and the benchmark's own spans around every call it makes
// into a layer. The workload's simulated results must not change.
type tracedRun struct {
	layers map[string]float64
	tracer *obs.Tracer
	rec    *recording
}

// traced runs the workload once under observation and returns the
// per-layer metrics plus the digests or rendered sections the parent
// compares against the timed repetitions.
func traced(name string, seed int64, tmp string) (childReport, error) {
	t := &tracedRun{layers: map[string]float64{}, tracer: obs.NewWallTracer(), rec: newRecording(recordStride, recordMaxSteps)}
	for _, k := range perLayerNames() {
		t.layers[k] = 0
	}
	report := childReport{Digests: map[string]string{}}

	var profile bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&profile); err != nil {
		return report, err
	}
	start := time.Now()
	var p heb.Prototype
	var pl *plan
	var err error
	if name == paperSuite {
		p, err = t.paperSuite(seed, &report)
	} else {
		pl, err = t.plannedRuns(name, seed, tmp, &report)
	}
	report.WorkSeconds = time.Since(start).Seconds()
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	if err != nil {
		return report, err
	}
	t.layers["go.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.layers["go.mallocs"] = float64(after.Mallocs - before.Mallocs)
	t.layers["go.gc_cycles"] = float64(after.NumGC - before.NumGC)

	parsed, err := prof.Parse(&profile)
	if err != nil {
		return report, fmt.Errorf("cpu profile: %w", err)
	}
	shares, samples, err := cpuShares(parsed)
	if err != nil {
		return report, fmt.Errorf("cpu profile: %w", err)
	}
	for b, v := range shares {
		t.layers["cpu."+b] = v
	}
	t.layers["cpu.samples"] = float64(samples)
	t.spanCounts()

	// Work after the profile closes: the instruments-off re-run of the
	// flight recorder, then the layer replays.
	if name == paperSuite {
		if err := t.suiteInputs(p); err != nil {
			return report, err
		}
	} else {
		p = pl.p
		if name == flightRecorder {
			if err := t.instrumentsOff(pl, &report); err != nil {
				return report, err
			}
		}
	}
	build, err := buildMicros(p, mustPR(24*time.Hour), 24*time.Hour)
	if err != nil {
		return report, err
	}
	t.layers["sim.build_us"] = build
	if err := microTimings(p, t.rec, t.layers); err != nil {
		return report, err
	}
	report.Layers = t.layers
	return report, nil
}

// paperSuite runs the experiment suite in-process with the arguments
// hebsim -exp all passes, timing each experiment call.
func (t *tracedRun) paperSuite(seed int64, report *childReport) (heb.Prototype, error) {
	p := heb.DefaultPrototype()
	p.Seed = seed
	q := p
	q.Tracer = t.tracer
	res, err := runSuite(q)
	if err != nil {
		return p, err
	}
	report.Sections = res.sections
	for _, exp := range timedExperiments {
		t.layers["heb.exp."+exp+".s"] = res.expSeconds[exp]
	}
	t.layers["runner.cells"] = float64(res.progress.Done)
	t.layers["runner.cell_ms.n"] = float64(len(res.cellMillis))
	t.layers["runner.cell_ms.p50"] = medianOrZero(res.cellMillis)
	if len(res.cellMillis) > 0 {
		t.layers["runner.cell_ms.p95"] = quantile(res.cellMillis, 0.95)
	}
	t.layers["runner.busy_frac"] = res.progress.Utilization(suiteWorkers)
	t.layers["sim.steps"] = float64(res.progress.Units)
	hits, misses := heb.TraceCacheStats()
	t.layers["trace.cache_hits"] = float64(hits)
	t.layers["trace.cache_misses"] = float64(misses)
	return p, nil
}

// suiteInputs times input generation outside the trace cache — the
// suite's eight 24 h Table 1 traces and its solar day, as the first
// experiment to need each generates it — and records the layer inputs
// of the suite's fig12a HEB-D row: the eight Table 1 workloads at the
// utility budget, where peak shaving makes the buffers discharge-heavy.
func (t *tracedRun) suiteInputs(p heb.Prototype) error {
	gen := time.Now()
	for _, spec := range workload.Catalog() {
		if _, err := spec.Generate(p.Seed, p.NumServers, suiteDuration, 10*time.Second); err != nil {
			return err
		}
	}
	if _, err := solarFor(p.Seed).Generate(suiteDuration, 10*time.Second); err != nil {
		return err
	}
	t.layers["inputs.gen_s"] = time.Since(gen).Seconds()
	for _, w := range heb.EvaluationWorkloads() {
		var opts heb.RunOptions
		t.rec.hook(&opts)
		opts.Duration = suiteDuration
		if _, err := p.Run(heb.HEBD, w.WithDuration(suiteDuration), opts); err != nil {
			return err
		}
	}
	return nil
}

// plannedRuns runs solar-week or flight-recorder with a span around
// every call: input generation, each engine run, and for the flight
// recorder the capture write and its validation. HEB-D's run records
// the layer inputs the replays use.
func (t *tracedRun) plannedRuns(name string, seed int64, tmp string, report *childReport) (*plan, error) {
	gen := time.Now()
	pl, err := preparePlan(name, seed)
	if err != nil {
		return nil, err
	}
	t.layers["inputs.gen_s"] = time.Since(gen).Seconds()
	p := pl.p
	var capture *obs.Capture
	if name == flightRecorder {
		p, capture = instrumented(p)
		if err := obs.StartManifest(tmp, "run"); err != nil {
			return nil, err
		}
	}
	p.Tracer = t.tracer
	var runSeconds float64
	var steps int
	for _, id := range pl.order(false) {
		var opts heb.RunOptions
		if id == heb.HEBD {
			t.rec.hook(&opts)
		}
		start := time.Now()
		res, err := pl.run(p, id, opts)
		runSeconds += time.Since(start).Seconds()
		if err != nil {
			return nil, err
		}
		steps += res.Steps
		if report.Digests[id.String()], err = resultDigest(res); err != nil {
			return nil, err
		}
	}
	t.layers["sim.steps"] = float64(steps)
	hits, misses := heb.TraceCacheStats()
	t.layers["trace.cache_hits"] = float64(hits)
	t.layers["trace.cache_misses"] = float64(misses)
	if capture != nil {
		t.layers["obs.run_s"] = runSeconds
		start := time.Now()
		if err := capture.WriteFiles(tmp); err != nil {
			return nil, err
		}
		t.layers["obs.write_s"] = time.Since(start).Seconds()
		debug.FreeOSMemory() // as in timedRun
		start = time.Now()
		c, err := validateCapture(tmp, len(pl.schemes))
		t.layers["obs.validate_s"] = time.Since(start).Seconds()
		report.Checks++
		if err != nil {
			report.Failures = append(report.Failures, "capture: "+err.Error())
		} else {
			report.Digests["capture"] = c.manifestSHA
			t.layers["obs.checkpoints"] = float64(c.checkpoints)
			t.layers["obs.events"] = float64(c.events)
			t.layers["obs.capture_mb"] = float64(c.bytes) / (1 << 20)
		}
	}
	return pl, nil
}

// instrumentsOff re-runs the flight recorder's schemes with every
// instrument off. The results must equal the instrumented ones: the
// instruments observe, they never steer.
func (t *tracedRun) instrumentsOff(pl *plan, report *childReport) error {
	var off float64
	for _, id := range pl.order(false) {
		start := time.Now()
		res, err := pl.run(pl.p, id, heb.RunOptions{})
		off += time.Since(start).Seconds()
		if err != nil {
			return err
		}
		d, err := resultDigest(res)
		if err != nil {
			return err
		}
		report.Checks++
		if d != report.Digests[id.String()] {
			report.Failures = append(report.Failures, fmt.Sprintf("%s: instruments changed the result", id))
		}
	}
	t.layers["obs.off_run_s"] = off
	if off > 0 {
		t.layers["obs.overhead_x"] = t.layers["obs.run_s"] / off
	}
	return nil
}

// spanCounts derives run and slot counts and the engine's throughput
// from its own spans on the wall-clock tracer: one "run" span per engine
// run on a track named by the run's configuration key, one "plan" span
// per control slot.
func (t *tracedRun) spanCounts() {
	type track struct{ pid, tid int }
	names := map[track]string{}
	distinct := map[string]bool{}
	var runs, slots int
	var runUS int64
	for _, e := range t.tracer.Events() {
		switch {
		case e.Phase == "M" && e.Name == "thread_name":
			names[track{e.PID, e.TID}], _ = e.Args["name"].(string)
		case e.Phase == "X" && e.Name == "run":
			runs++
			runUS += e.Dur
			distinct[names[track{e.PID, e.TID}]] = true
		case e.Phase == "X" && e.Name == "plan":
			slots++
		}
	}
	t.layers["heb.runs"] = float64(runs)
	t.layers["heb.distinct_runs"] = float64(len(distinct))
	t.layers["sim.slots"] = float64(slots)
	if runUS > 0 {
		t.layers["sim.steps_per_s"] = t.layers["sim.steps"] / (float64(runUS) / 1e6)
	}
}

func mustPR(d time.Duration) heb.Workload {
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		panic(err) // PR is in the built-in catalog
	}
	return wl.WithDuration(d)
}
