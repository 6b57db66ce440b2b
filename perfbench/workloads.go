package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"heb"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/power"
	"heb/internal/sim"
	"heb/internal/units"
)

// Workload names, as BENCHMARK.json lists them.
const (
	paperSuite     = "paper-suite"
	solarWeek      = "solar-week"
	flightRecorder = "flight-recorder"
)

var workloadNames = []string{paperSuite, solarWeek, flightRecorder}

const (
	solarWeekDuration = 7 * 24 * time.Hour
	flightDuration    = 24 * time.Hour
	solarStep         = 10 * time.Second
	// flightProbeEvery samples device probes once a simulated minute,
	// the cadence the repository's observability tests use.
	flightProbeEvery = 60
)

// plan is the generated input of a solar-week or flight-recorder run:
// the prototype, the workload trace (already in the trace cache) and,
// for solar-week, the seeded solar availability series.
type plan struct {
	p        heb.Prototype
	wl       heb.Workload
	duration time.Duration
	schemes  []heb.SchemeID
	solar    []units.Power
}

// preparePlan generates and validates a workload's inputs: everything a
// cold process does before its first engine step.
func preparePlan(name string, seed int64) (*plan, error) {
	pl := &plan{p: heb.DefaultPrototype()}
	pl.p.Seed = seed
	switch name {
	case solarWeek:
		pl.duration = solarWeekDuration
		pl.schemes = heb.AllSchemes()
	case flightRecorder:
		pl.duration = flightDuration
		pl.schemes = []heb.SchemeID{heb.BaOnly, heb.HEBD}
	default:
		return nil, fmt.Errorf("no plan for workload %q", name)
	}
	if err := pl.p.Validate(); err != nil {
		return nil, err
	}
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		return nil, err
	}
	pl.wl = wl.WithDuration(pl.duration)
	if _, err := pl.wl.Trace(pl.p); err != nil {
		return nil, err
	}
	if name == solarWeek {
		cfg := solarFor(seed)
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		series, err := cfg.Generate(pl.duration, solarStep)
		if err != nil {
			return nil, err
		}
		pl.solar = make([]units.Power, len(series.Values))
		for i, v := range series.Values {
			pl.solar[i] = units.Power(v)
		}
		// The feed validates its samples; building one here moves that
		// check into set-up.
		if _, err := power.NewTraceFeed("solar", solarStep, pl.solar); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// order returns the plan's schemes, reversed when asked, so alternate
// repetitions run them in the opposite order.
func (pl *plan) order(reverse bool) []heb.SchemeID {
	out := append([]heb.SchemeID(nil), pl.schemes...)
	if reverse {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// run executes one scheme of the plan on prototype p. solar-week runs
// get a fresh feed over the shared solar series, marked renewable.
func (pl *plan) run(p heb.Prototype, id heb.SchemeID, opts heb.RunOptions) (sim.Result, error) {
	opts.Duration = pl.duration
	if pl.solar != nil {
		feed, err := power.NewTraceFeed("solar", solarStep, pl.solar)
		if err != nil {
			return sim.Result{}, err
		}
		opts.Feed, opts.Renewable = feed, true
	}
	res, err := p.Run(id, pl.wl, opts)
	if err != nil {
		return res, fmt.Errorf("%s on %s: %w", id, pl.wl.Name(), err)
	}
	return res, nil
}

// timedRun executes solar-week or flight-recorder once with nothing
// observing it beyond what the workload itself turns on, and reports the
// digest of every run's result.
func timedRun(workload string, seed int64, reverse bool, tmp string) (childReport, error) {
	report := childReport{Digests: map[string]string{}}
	pl, err := preparePlan(workload, seed)
	if err != nil {
		return report, err
	}
	p := pl.p
	var capture *obs.Capture
	if workload == flightRecorder {
		p, capture = instrumented(p)
		if err := obs.StartManifest(tmp, "run"); err != nil {
			return report, err
		}
	}
	for _, id := range pl.order(reverse) {
		res, err := pl.run(p, id, heb.RunOptions{})
		if err != nil {
			return report, err
		}
		if report.Digests[id.String()], err = resultDigest(res); err != nil {
			return report, err
		}
	}
	if capture != nil {
		if err := capture.WriteFiles(tmp); err != nil {
			return report, err
		}
		// Validation stands for obscheck, a separate process: hand the
		// writer's garbage back first so the two phases' memory does not
		// stack by the chance of when the collector last ran.
		debug.FreeOSMemory()
		c, err := validateCapture(tmp, len(pl.schemes))
		report.Checks++
		if err != nil {
			report.Failures = append(report.Failures, "capture: "+err.Error())
		} else {
			report.Digests["capture"] = c.manifestSHA
		}
	}
	return report, nil
}

// instrumented turns on every instrument hebsim -obs users run with:
// capture, a checkpoint every slot, probes, and the audit and alert
// engines in report mode.
func instrumented(p heb.Prototype) (heb.Prototype, *obs.Capture) {
	capture := obs.NewCapture()
	capture.SetLabel("run")
	p.Capture = capture
	p.CheckpointEvery = 1
	p.ProbeEvery = flightProbeEvery
	p.Audit = obs.AuditModeReport
	p.Audits = obs.NewAuditLog()
	p.Alert = alerts.ModeReport
	p.Alerts = alerts.NewLog()
	return p, capture
}

// captureCheck is what validating a written capture found.
type captureCheck struct {
	manifestSHA string
	bytes       int64
	checkpoints int
	events      int
}

// validateCapture checks a written capture directory the way obscheck
// does for the parts this workload produces: a complete manifest with
// one row per run, an inventory whose sizes and SHA-256 sums match the
// files on disk and that lists every capture file present, a valid
// checkpoint chain per run ending at the manifest's chain head, event
// counts that match the manifest, and every energy audit passed.
func validateCapture(dir string, runs int) (captureCheck, error) {
	var c captureCheck
	m, err := obs.ReadManifest(dir)
	if err != nil {
		return c, err
	}
	if m.Status != obs.StatusComplete {
		return c, fmt.Errorf("manifest status %q, want %q", m.Status, obs.StatusComplete)
	}
	if len(m.Runs) != runs {
		return c, fmt.Errorf("manifest lists %d runs, want %d", len(m.Runs), runs)
	}
	inventoried := map[string]bool{}
	for _, a := range m.Artifacts {
		raw, err := os.ReadFile(filepath.Join(dir, a.Name))
		if err != nil {
			return c, fmt.Errorf("inventoried artifact: %w", err)
		}
		sum := sha256.Sum256(raw)
		if int64(len(raw)) != a.Bytes || hex.EncodeToString(sum[:]) != a.SHA256 {
			return c, fmt.Errorf("artifact %s does not match its inventory entry", a.Name)
		}
		inventoried[a.Name] = true
	}
	for _, name := range obs.ArtifactNames {
		_, err := os.Stat(filepath.Join(dir, name))
		if err == nil && !inventoried[name] {
			return c, fmt.Errorf("artifact %s is not inventoried", name)
		}
	}
	for _, name := range []string{"events.jsonl", "decisions.jsonl", "metrics.prom", "probes.jsonl", "audits.jsonl", "checkpoints.jsonl"} {
		if !inventoried[name] {
			return c, fmt.Errorf("artifact %s missing", name)
		}
	}

	f, err := os.Open(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		return c, err
	}
	records, err := obs.ReadCheckpoints(f)
	f.Close()
	if err != nil {
		return c, err
	}
	if err := obs.ValidateCheckpoints(records); err != nil {
		return c, err
	}
	heads := map[string]string{}
	for _, r := range records {
		heads[r.Run] = r.Hash
	}
	wantEvents := 0
	for _, r := range m.Runs {
		c.checkpoints += r.Checkpoints
		wantEvents += r.Summary.Events
		if r.Checkpoints == 0 || heads[r.Key] != r.CheckpointHead {
			return c, fmt.Errorf("run %s: checkpoint chain head does not match the manifest", r.ID)
		}
		if r.Summary.AuditPassed == nil || !*r.Summary.AuditPassed {
			return c, fmt.Errorf("run %s: energy audit did not pass", r.ID)
		}
	}
	if len(records) != c.checkpoints {
		return c, fmt.Errorf("checkpoints.jsonl holds %d records, manifest %d", len(records), c.checkpoints)
	}
	c.events, err = countLines(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		return c, err
	}
	if c.events != wantEvents {
		return c, fmt.Errorf("events.jsonl holds %d events, manifest %d", c.events, wantEvents)
	}

	raw, err := os.ReadFile(filepath.Join(dir, obs.ManifestName))
	if err != nil {
		return c, err
	}
	sum := sha256.Sum256(raw)
	c.manifestSHA = hex.EncodeToString(sum[:16])
	entries, err := os.ReadDir(dir)
	if err != nil {
		return c, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return c, err
		}
		c.bytes += info.Size()
	}
	return c, nil
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	n := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			n++
		}
	}
	return n, sc.Err()
}
