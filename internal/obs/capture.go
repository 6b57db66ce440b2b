package obs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"heb/internal/obs/alerts"
)

// RunArtifact is one run's contribution to a capture: its events and
// decision trace plus the deterministic scalar counters that end up in
// metrics.prom. Key must identify the run's full configuration (scheme,
// workload, duration, seed, ...) — artifacts are sorted by Key before
// writing, which is what makes the output independent of worker
// scheduling.
type RunArtifact struct {
	Key           string
	Events        []Event
	EventsDropped int
	Decisions     []DecisionRecord
	Steps         int64
	MismatchSteps int64
	Slots         int64
	// RelaySwitches counts relay movements by destination position name
	// (utility, battery, supercap, off).
	RelaySwitches map[string]int64
	PATLookups    int64
	PATMisses     int64
	// Probes holds the run's per-device probe samples (probes.jsonl);
	// ProbesDropped counts samples the per-device ring overwrote.
	Probes        []ProbeSample
	ProbesDropped int64
	// Audit is the run's energy-conservation verdict (audits.jsonl), nil
	// when the run was not audited.
	Audit *AuditReport
	// Checkpoints holds the run's hash-chained flight-recorder records
	// (checkpoints.jsonl), empty when checkpointing was off.
	Checkpoints []CheckpointRecord
	// AlertEvents holds the run's fired SLO alerts (alerts.jsonl), empty
	// when the rule engine was off or quiet.
	AlertEvents []alerts.Event
	// Alerts is the run's alert report and health verdict, nil when the
	// rule engine was off.
	Alerts *alerts.Report
	// Metrics carries the run's headline result scalars (energy
	// efficiency, downtime, battery lifetime, ...) for the manifest's
	// summary and cross-run comparison.
	Metrics map[string]float64
}

// Capture aggregates the per-run observability artifacts of a sweep and
// writes them as three files: events.jsonl, decisions.jsonl and
// metrics.prom. Runs may Contribute concurrently and in any order; the
// written files are byte-identical for any worker count because output is
// sorted by (Key, content) and contains only simulation-deterministic
// values — never wall-clock or scheduling state.
type Capture struct {
	mu       sync.Mutex
	eventCap int
	label    string
	runs     []RunArtifact
}

// DefaultEventCap bounds the events kept per run so a full-suite sweep
// cannot grow without bound; overflow is counted, not stored.
const DefaultEventCap = 5000

// NewCapture builds an empty capture with the default per-run event cap.
func NewCapture() *Capture { return &Capture{eventCap: DefaultEventCap} }

// SetEventCap overrides the per-run event cap (0 = unbounded).
func (c *Capture) SetEventCap(n int) {
	c.mu.Lock()
	c.eventCap = n
	c.mu.Unlock()
}

// EventCap returns the per-run event cap each contributing run should use.
func (c *Capture) EventCap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.eventCap
}

// SetLabel names the producing sweep/experiment; the label lands in the
// manifest so the registry can show what a capture directory holds.
func (c *Capture) SetLabel(label string) {
	c.mu.Lock()
	c.label = label
	c.mu.Unlock()
}

// Label returns the capture's label.
func (c *Capture) Label() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.label
}

// Contribute adds one run's artifact. Events and decisions are stamped
// with the run key so the merged files remain attributable.
func (c *Capture) Contribute(a RunArtifact) {
	for i := range a.Events {
		if a.Events[i].Run == "" {
			a.Events[i].Run = a.Key
		}
	}
	for i := range a.Decisions {
		if a.Decisions[i].Run == "" {
			a.Decisions[i].Run = a.Key
		}
	}
	for i := range a.Probes {
		if a.Probes[i].Run == "" {
			a.Probes[i].Run = a.Key
		}
	}
	if a.Audit != nil && a.Audit.Run == "" {
		a.Audit.Run = a.Key
	}
	for i := range a.Checkpoints {
		if a.Checkpoints[i].Run == "" {
			a.Checkpoints[i].Run = a.Key
		}
	}
	for i := range a.AlertEvents {
		if a.AlertEvents[i].Run == "" {
			a.AlertEvents[i].Run = a.Key
		}
	}
	if a.Alerts != nil && a.Alerts.Run == "" {
		a.Alerts.Run = a.Key
	}
	c.mu.Lock()
	c.runs = append(c.runs, a)
	c.mu.Unlock()
}

// Runs returns the contributed artifacts sorted into output order.
func (c *Capture) Runs() []RunArtifact {
	runs, _ := c.sortedRuns()
	return runs
}

// sortedRuns returns the contributed artifacts in output order together
// with their content fingerprints (artifactFingerprint), index for index.
func (c *Capture) sortedRuns() ([]RunArtifact, []string) {
	c.mu.Lock()
	out := append([]RunArtifact(nil), c.runs...)
	c.mu.Unlock()
	// Precompute fingerprints: key collisions are legitimate (a suite may
	// run the same cell in several experiments, and a key cannot encode
	// every config knob), so ties must order by full content to keep the
	// written files scheduling-independent.
	fps := make([]string, len(out))
	idx := make([]int, len(out))
	for i := range out {
		fps[i] = artifactFingerprint(out[i])
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return fps[i] < fps[j]
	})
	sorted := make([]RunArtifact, len(out))
	sortedFps := make([]string, len(out))
	for k, i := range idx {
		sorted[k] = out[i]
		sortedFps[k] = fps[i]
	}
	return sorted, sortedFps
}

// artifactFingerprint summarizes an artifact's full simulated content —
// counters, every event, every decision record — so that artifacts
// sharing a Key still sort deterministically.
func artifactFingerprint(a RunArtifact) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d|%d|%d|%d|%d", a.Steps, a.MismatchSteps, a.Slots, len(a.Events), len(a.Decisions))
	for _, e := range a.Events {
		fmt.Fprintf(&sb, "|%g:%d:%d:%s:%s:%g", e.Seconds, e.Kind, e.Server, e.From, e.To, e.Watts)
	}
	for _, d := range a.Decisions {
		fmt.Fprintf(&sb, "|%d:%s:%g:%v:%g:%g:%g:%g:%d",
			d.Slot, d.Mode, d.Ratio, d.SmallPeak,
			d.PredictedPeakW, d.ActualPeakW, d.SCFrac, d.BAFrac, d.PATLookups)
	}
	fmt.Fprintf(&sb, "|probes=%d,%d", len(a.Probes), a.ProbesDropped)
	for _, s := range a.Probes {
		fmt.Fprintf(&sb, "|%g:%s:%g:%g:%g:%g:%g:%g", s.Seconds, s.Device, s.SoC, s.VoltageV, s.PowerW, s.AvailAh, s.BoundAh, s.ThroughputAh)
	}
	if a.Audit != nil {
		fmt.Fprintf(&sb, "|audit=%s:%d:%g:%g:%d:%v", a.Audit.Mode, a.Audit.Steps,
			a.Audit.DriftWh, a.Audit.RelDrift, a.Audit.Violations, a.Audit.Passed)
	}
	fmt.Fprintf(&sb, "|ckpts=%d", len(a.Checkpoints))
	for _, r := range a.Checkpoints {
		// The chain hash already covers slot, step, time and state.
		fmt.Fprintf(&sb, "|%s", r.Hash)
	}
	if a.Alerts != nil {
		fmt.Fprintf(&sb, "|alerts=%s:%d:%d:%d:%s", a.Alerts.Mode,
			a.Alerts.Events, a.Alerts.Warnings, a.Alerts.Criticals, a.Alerts.Health)
	}
	for _, e := range a.AlertEvents {
		fmt.Fprintf(&sb, "|%g:%s:%s:%s:%g:%g", e.Seconds, e.Kind, e.Severity, e.Device, e.Value, e.Limit)
	}
	for _, k := range sortedMetricKeys(a.Metrics) {
		fmt.Fprintf(&sb, "|%s=%g", k, a.Metrics[k])
	}
	return sb.String()
}

func sortedMetricKeys(m map[string]float64) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Registry renders the capture's deterministic counters into a fresh
// metrics registry using the heb_<subsystem>_<name>_<unit> naming scheme.
func (c *Capture) Registry() *Registry { return registryOf(c.Runs()) }

// registryOf renders runs, already in output order, into a registry.
func registryOf(runs []RunArtifact) *Registry {
	reg := NewRegistry()
	reg.Counter("heb_capture_runs_total", "Runs contributing to this capture.").Add(float64(len(runs)))
	for _, a := range runs {
		reg.Counter("heb_engine_steps_total", "Simulation steps executed.").Add(float64(a.Steps))
		reg.Counter("heb_engine_mismatch_steps_total", "Steps with demand above supply.").Add(float64(a.MismatchSteps))
		reg.Counter("heb_control_slots_total", "hControl slots planned.").Add(float64(a.Slots))
		reg.Counter("heb_pat_lookups_total", "PAT table lookups.").Add(float64(a.PATLookups))
		reg.Counter("heb_pat_misses_total", "PAT lookups served by similarity fallback.").Add(float64(a.PATMisses))
		reg.Counter("heb_obs_events_dropped_total", "Events rejected by the per-run cap.").Add(float64(a.EventsDropped))
		for pos, n := range a.RelaySwitches {
			reg.Counter("heb_power_relay_switches_total", "Relay movements by destination position.",
				Label{Name: "position", Value: pos}).Add(float64(n))
		}
		for kind, n := range countKinds(a.Events) {
			reg.Counter("heb_obs_events_total", "Events recorded by kind.",
				Label{Name: "kind", Value: kind.String()}).Add(float64(n))
		}
		reg.Counter("heb_obs_probes_total", "Probe samples retained.").Add(float64(len(a.Probes)))
		reg.Counter("heb_obs_probes_dropped_total", "Probe samples overwritten by the per-device ring.").Add(float64(a.ProbesDropped))
		for _, s := range a.Probes {
			reg.Histogram("heb_probe_soc", "Probed device state of charge.",
				LinearBuckets(0, 0.1, 10)).Observe(s.SoC)
			reg.Histogram("heb_probe_power_watts", "Probed mean net terminal power (positive discharging).",
				LinearBuckets(-200, 50, 10)).Observe(s.PowerW)
		}
		if a.Audit != nil {
			reg.Counter("heb_audit_runs_total", "Audited runs by verdict.",
				Label{Name: "passed", Value: fmt.Sprintf("%v", a.Audit.Passed)}).Add(1)
			reg.Counter("heb_audit_violations_total", "Audit violations flagged.").Add(float64(a.Audit.Violations))
		}
		if a.Alerts != nil {
			reg.Counter("heb_alert_runs_total", "Alerted runs by health verdict.",
				Label{Name: "health", Value: a.Alerts.Health}).Add(1)
			reg.Counter("heb_alert_events_total", "Fired SLO alerts by severity.",
				Label{Name: "severity", Value: alerts.SeverityWarn.String()}).Add(float64(a.Alerts.Warnings))
			reg.Counter("heb_alert_events_total", "Fired SLO alerts by severity.",
				Label{Name: "severity", Value: alerts.SeverityCritical.String()}).Add(float64(a.Alerts.Criticals))
		}
	}
	return reg
}

func countKinds(events []Event) map[EventKind]int {
	out := make(map[EventKind]int)
	for _, e := range events {
		out[e.Kind]++
	}
	return out
}

// WriteFiles writes events.jsonl, decisions.jsonl and metrics.prom into
// dir, creating it if needed; probes.jsonl, audits.jsonl,
// checkpoints.jsonl and alerts.jsonl follow whenever any run contributed
// probe samples, an audit report, flight-recorder checkpoints or fired
// alerts. A manifest.json indexing
// the runs and inventorying the written files (sizes + SHA-256) is
// installed atomically last, with status complete. Output depends only on
// the contributed artifacts, never on contribution order.
func (c *Capture) WriteFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: capture dir: %w", err)
	}
	runs, fps := c.sortedRuns()
	shares, err := writeJSONL(runs, func(name string) (io.WriteCloser, error) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("obs: %w", err)
		}
		return f, nil
	})
	if err != nil {
		return err
	}
	if err := writeTo(filepath.Join(dir, "metrics.prom"), func(f *os.File) error {
		return registryOf(runs).WritePrometheus(f)
	}); err != nil {
		return err
	}

	manifest := c.manifest(runs, fps, shares)
	inv, err := inventory(dir, ArtifactNames)
	if err != nil {
		return err
	}
	manifest.Artifacts = inv
	return WriteManifest(dir, manifest)
}

// jsonlArtifacts lists the capture's JSONL files in write order, each
// with the test for whether a run contributes to it and the writer of one
// run's slice. events.jsonl and decisions.jsonl are written even when
// empty; the rest only when some run has content for them.
var jsonlArtifacts = []struct {
	name  string
	has   func(RunArtifact) bool
	write func(io.Writer, RunArtifact) error
}{
	{"events.jsonl", nil, func(w io.Writer, a RunArtifact) error { return WriteEventsJSONL(w, a.Events) }},
	{"decisions.jsonl", nil, func(w io.Writer, a RunArtifact) error { return WriteDecisionsJSONL(w, a.Decisions) }},
	{"probes.jsonl",
		func(a RunArtifact) bool { return len(a.Probes) > 0 },
		func(w io.Writer, a RunArtifact) error { return WriteProbesJSONL(w, a.Probes) }},
	{"audits.jsonl",
		func(a RunArtifact) bool { return a.Audit != nil },
		func(w io.Writer, a RunArtifact) error {
			if a.Audit == nil {
				return nil
			}
			return WriteAuditsJSONL(w, []AuditReport{*a.Audit})
		}},
	{"checkpoints.jsonl",
		func(a RunArtifact) bool { return len(a.Checkpoints) > 0 },
		func(w io.Writer, a RunArtifact) error { return WriteCheckpointsJSONL(w, a.Checkpoints) }},
	{"alerts.jsonl",
		func(a RunArtifact) bool { return len(a.AlertEvents) > 0 },
		func(w io.Writer, a RunArtifact) error { return alerts.WriteEventsJSONL(w, a.AlertEvents) }},
}

// writeJSONL encodes each JSONL artifact once, run by run in output
// order, into the writer create opens for it, and returns every run's
// share of the bytes written. The shares are the manifest's per-run
// Bytes, so they come from the same encoding that lands in the files.
func writeJSONL(runs []RunArtifact, create func(name string) (io.WriteCloser, error)) ([]int64, error) {
	shares := make([]int64, len(runs))
	for _, art := range jsonlArtifacts {
		if art.has != nil && !slices.ContainsFunc(runs, art.has) {
			continue
		}
		f, err := create(art.name)
		if err != nil {
			return nil, err
		}
		cw := &countingWriter{w: f}
		for i, a := range runs {
			before := cw.n
			if err := art.write(cw, a); err != nil {
				f.Close()
				return nil, err
			}
			shares[i] += cw.n - before
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("obs: close %s: %w", art.name, err)
		}
	}
	return shares, nil
}

// countingWriter passes writes through to w, counting the bytes.
type countingWriter struct {
	w io.Writer
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.n += int64(n)
	return n, err
}

// ArtifactNames lists every capture-owned artifact file a manifest may
// inventory, in inventory order.
var ArtifactNames = []string{
	"events.jsonl", "decisions.jsonl", "metrics.prom",
	"probes.jsonl", "audits.jsonl", "checkpoints.jsonl", "alerts.jsonl",
}

func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: close %s: %w", path, err)
	}
	return nil
}
