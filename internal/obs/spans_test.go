package obs

import (
	"bytes"
	"testing"
)

// buildTrace makes a tracer with two tracks in the given creation order;
// content is identical either way, exercising the writer's sorting.
func buildTrace(order []string) *Tracer {
	tr := NewTracer()
	for _, name := range order {
		track := tr.NewTrack("cellA", name)
		track.Begin("run", "engine")
		track.Begin("plan", "control")
		track.Advance(VirtualPlanUS)
		track.End()
		track.Begin("steps", "engine")
		track.Advance(10 * VirtualStepUS)
		track.End()
		track.End()
	}
	return tr
}

func TestTracerOutputIndependentOfTrackCreationOrder(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildTrace([]string{"run1", "run2"}).WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTrace([]string{"run2", "run1"}).WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("trace bytes depend on track creation order")
	}
}

func TestTracerProducesValidRoundTrippableTrace(t *testing.T) {
	tr := buildTrace([]string{"run1", "run2"})
	events := tr.Events()
	if err := ValidateTrace(events); err != nil {
		t.Fatalf("tracer output invalid: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(events) {
		t.Fatalf("round-trip lost events: %d -> %d", len(events), len(back))
	}
	if err := ValidateTrace(back); err != nil {
		t.Errorf("round-tripped trace invalid: %v", err)
	}
	// Two tracks in one group: one process metadata, two thread metadata.
	var procs, threads, spans int
	for _, e := range back {
		switch {
		case e.Phase == "M" && e.Name == "process_name":
			procs++
		case e.Phase == "M" && e.Name == "thread_name":
			threads++
		case e.Phase == "X":
			spans++
		}
	}
	if procs != 1 || threads != 2 || spans != 6 {
		t.Errorf("got %d processes, %d threads, %d spans; want 1/2/6", procs, threads, spans)
	}
}

func TestVirtualClockNesting(t *testing.T) {
	tr := NewTracer()
	track := tr.NewTrack("g", "t")
	track.Begin("outer", "x")
	track.Advance(5)
	track.Begin("inner", "x")
	track.Advance(10)
	track.End()
	track.Advance(3)
	track.End()

	var outer, inner *TraceEvent
	for i, e := range tr.Events() {
		if e.Phase != "X" {
			continue
		}
		switch e.Name {
		case "outer":
			outer = &tr.Events()[i]
		case "inner":
			inner = &tr.Events()[i]
		}
	}
	if outer == nil || inner == nil {
		t.Fatal("spans missing")
	}
	if outer.TS != 0 || outer.Dur != 18 {
		t.Errorf("outer ts=%d dur=%d, want 0/18", outer.TS, outer.Dur)
	}
	if inner.TS != 5 || inner.Dur != 10 {
		t.Errorf("inner ts=%d dur=%d, want 5/10", inner.TS, inner.Dur)
	}
}

func TestNilTrackIsSafe(t *testing.T) {
	var track *Track
	track.Begin("a", "b")
	track.Advance(10)
	track.End()
}

func TestWallTracerAdvanceIsNoOp(t *testing.T) {
	tr := NewWallTracer()
	track := tr.NewTrack("g", "t")
	track.Begin("span", "x")
	track.Advance(1 << 40) // must not teleport the clock
	track.End()
	events := tr.Events()
	if err := ValidateTrace(events); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Phase == "X" && e.Dur > 1<<39 {
			t.Errorf("wall span inherited virtual advance: dur %d", e.Dur)
		}
	}
}

func TestValidateTraceRejectsMalformed(t *testing.T) {
	cases := map[string][]TraceEvent{
		"unknown phase": {{Name: "x", Phase: "B", PID: 1, TID: 1}},
		"unnamed span":  {{Phase: "X", PID: 1, TID: 1}},
		"negative dur":  {{Name: "x", Phase: "X", TS: 0, Dur: -1, PID: 1, TID: 1}},
		"bad metadata":  {{Name: "weird_meta", Phase: "M", PID: 1}},
		"meta no name":  {{Name: "process_name", Phase: "M", PID: 1, Args: map[string]any{}}},
		"overlap": {
			{Name: "a", Phase: "X", TS: 0, Dur: 10, PID: 1, TID: 1},
			{Name: "b", Phase: "X", TS: 5, Dur: 10, PID: 1, TID: 1},
		},
	}
	for name, events := range cases {
		if err := ValidateTrace(events); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Disjoint and properly nested events pass.
	ok := []TraceEvent{
		{Name: "a", Phase: "X", TS: 0, Dur: 10, PID: 1, TID: 1},
		{Name: "b", Phase: "X", TS: 2, Dur: 5, PID: 1, TID: 1},
		{Name: "c", Phase: "X", TS: 20, Dur: 5, PID: 1, TID: 1},
		// Same window on another thread is unrelated.
		{Name: "d", Phase: "X", TS: 5, Dur: 100, PID: 1, TID: 2},
	}
	if err := ValidateTrace(ok); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
}

func TestRollupSelfTime(t *testing.T) {
	events := []TraceEvent{
		{Name: "run", Phase: "X", TS: 0, Dur: 100, PID: 1, TID: 1},
		{Name: "plan", Phase: "X", TS: 0, Dur: 10, PID: 1, TID: 1},
		{Name: "steps", Phase: "X", TS: 10, Dur: 80, PID: 1, TID: 1},
		{Name: "plan", Phase: "X", TS: 90, Dur: 10, PID: 1, TID: 1},
		// A second thread contributes to the same phase names.
		{Name: "run", Phase: "X", TS: 0, Dur: 50, PID: 1, TID: 2},
		{Name: "steps", Phase: "X", TS: 0, Dur: 50, PID: 1, TID: 2},
	}
	stats := Rollup(events)
	byName := map[string]PhaseStat{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if s := byName["run"]; s.Count != 2 || s.TotalUS != 150 || s.SelfUS != 0 {
		t.Errorf("run rollup %+v", s)
	}
	if s := byName["steps"]; s.Count != 2 || s.TotalUS != 130 || s.SelfUS != 130 {
		t.Errorf("steps rollup %+v", s)
	}
	if s := byName["plan"]; s.Count != 2 || s.TotalUS != 20 || s.SelfUS != 20 {
		t.Errorf("plan rollup %+v", s)
	}
	// Sorted by self time descending.
	if stats[0].Name != "steps" {
		t.Errorf("hottest phase %q, want steps", stats[0].Name)
	}
}
