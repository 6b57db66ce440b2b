package heb

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
	"heb/internal/sim"
)

// diffBits returns the path of the first field where got and want differ,
// floats compared by their exact bits, or "" when they are identical.
func diffBits(path string, got, want reflect.Value) string {
	switch got.Kind() {
	case reflect.Struct:
		for i := 0; i < got.NumField(); i++ {
			if d := diffBits(path+"."+got.Type().Field(i).Name, got.Field(i), want.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if got.Len() != want.Len() {
			return fmt.Sprintf("%s: len %d, want %d", path, got.Len(), want.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if d := diffBits(fmt.Sprintf("%s[%d]", path, i), got.Index(i), want.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(got.Float()) != math.Float64bits(want.Float()) {
			return fmt.Sprintf("%s: %v, want %v", path, got.Float(), want.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if got.Int() != want.Int() {
			return fmt.Sprintf("%s: %d, want %d", path, got.Int(), want.Int())
		}
	case reflect.String:
		if got.String() != want.String() {
			return fmt.Sprintf("%s: %q, want %q", path, got.String(), want.String())
		}
	case reflect.Bool:
		if got.Bool() != want.Bool() {
			return fmt.Sprintf("%s: %v, want %v", path, got.Bool(), want.Bool())
		}
	default:
		return fmt.Sprintf("%s: unhandled kind %s", path, got.Kind())
	}
	return ""
}

// TestInstrumentsLeaveResultUntouched is the instrument seam's central
// contract: observing a run does not perturb it. Each instrument alone,
// and then all of them together, must leave sim.Result bit-identical to
// a bare run of the same configuration.
func TestInstrumentsLeaveResultUntouched(t *testing.T) {
	wl, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl = wl.WithDuration(time.Hour)
	type instrument struct {
		name string
		set  func(t *testing.T, p *Prototype, opts *RunOptions)
	}
	instruments := []instrument{
		{"observer", func(_ *testing.T, _ *Prototype, opts *RunOptions) {
			opts.Observer = func(sim.StepInfo) {}
		}},
		{"spans", func(_ *testing.T, p *Prototype, _ *RunOptions) { p.Tracer = obs.NewTracer() }},
		{"probes", func(_ *testing.T, p *Prototype, _ *RunOptions) { p.ProbeEvery = 60 }},
		{"audit", func(_ *testing.T, p *Prototype, _ *RunOptions) { p.Audit = obs.AuditModeReport }},
		{"alerts", func(_ *testing.T, p *Prototype, _ *RunOptions) { p.Alert = alerts.ModeReport }},
		{"checkpoints", func(_ *testing.T, p *Prototype, opts *RunOptions) {
			p.CheckpointEvery = 1
			opts.CheckpointSink = func(obs.CheckpointRecord) {}
		}},
		{"prof", func(t *testing.T, _ *Prototype, _ *RunOptions) {
			c := prof.NewCollector(t.TempDir(), []string{"heap"})
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := c.Stop(); err != nil {
					t.Error(err)
				}
			})
		}},
	}
	cases := append(instruments, instrument{"all", func(t *testing.T, p *Prototype, opts *RunOptions) {
		p.Capture = obs.NewCapture()
		for _, in := range instruments {
			in.set(t, p, opts)
		}
	}})
	for _, id := range []SchemeID{BaOnly, HEBD} {
		bare, err := DefaultPrototype().Run(id, wl, RunOptions{Duration: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s", id, c.name), func(t *testing.T) {
				p, opts := DefaultPrototype(), RunOptions{Duration: time.Hour}
				c.set(t, &p, &opts)
				got, err := p.Run(id, wl, opts)
				if err != nil {
					t.Fatal(err)
				}
				if d := diffBits("Result", reflect.ValueOf(got), reflect.ValueOf(bare)); d != "" {
					t.Errorf("instrumented run differs from the bare run at %s", d)
				}
			})
		}
	}
}
