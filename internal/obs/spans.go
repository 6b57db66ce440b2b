package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records hierarchical spans (sweep → cell → run → slot →
// step-batch) and exports them as Chrome trace-event JSON loadable in
// Perfetto / chrome://tracing.
//
// By default the tracer runs on a deterministic *virtual* clock: each
// track advances its own cursor by modeled per-phase costs instead of
// reading wall time. That is what lets trace.json satisfy the capture
// guarantee — byte-identical output for any -workers count — which no
// wall clock can. NewWallTracer swaps in real timestamps for genuine
// profiling at the cost of reproducibility.
type Tracer struct {
	mu     sync.Mutex
	wall   bool
	start  time.Time
	tracks []*Track
}

// NewTracer builds a deterministic virtual-clock tracer.
func NewTracer() *Tracer { return &Tracer{} }

// NewWallTracer builds a wall-clock tracer. Its output reflects real
// elapsed time and is NOT reproducible across invocations or worker
// counts.
func NewWallTracer() *Tracer {
	return &Tracer{wall: true, start: time.Now()}
}

// Wall reports whether the tracer uses the wall clock.
func (t *Tracer) Wall() bool { return t != nil && t.wall }

// NewTrack opens a named event track. group becomes the trace process
// (one per sweep cell), name the thread within it (one per run). Tracks
// may be created and written concurrently; each track is single-writer.
func (t *Tracer) NewTrack(group, name string) *Track {
	tr := &Track{tracer: t, group: group, name: name}
	t.mu.Lock()
	t.tracks = append(t.tracks, tr)
	t.mu.Unlock()
	return tr
}

// Virtual per-phase costs in microseconds. The absolute values are
// arbitrary; only their ratios shape the rendered trace, roughly matching
// the measured relative cost of the phases.
const (
	// VirtualStepUS is the modeled cost of one engine step.
	VirtualStepUS = 2
	// VirtualPlanUS is the modeled cost of one hControl slot plan.
	VirtualPlanUS = 40
	// VirtualFinishUS is the modeled cost of closing a slot.
	VirtualFinishUS = 5
)

// Track is one timeline within a tracer. Not safe for concurrent use; the
// engine writes each track from its single run goroutine.
type Track struct {
	tracer *Tracer
	group  string
	name   string

	cursor int64 // virtual microseconds since track start
	stack  []openSpan
	spans  []span
}

type openSpan struct {
	name, cat string
	startUS   int64
}

type span struct {
	name, cat string
	startUS   int64
	durUS     int64
	depth     int
}

// now returns the track's current timestamp in microseconds.
func (tr *Track) now() int64 {
	if tr.tracer.wall {
		return time.Since(tr.tracer.start).Microseconds()
	}
	return tr.cursor
}

// Advance moves the virtual clock forward by us microseconds (a no-op on
// wall-clock tracers, where time advances by itself).
func (tr *Track) Advance(us int64) {
	if tr == nil || tr.tracer.wall {
		return
	}
	tr.cursor += us
}

// Begin opens a span. Spans must nest: every Begin is closed by the
// matching End in LIFO order.
func (tr *Track) Begin(name, cat string) {
	if tr == nil {
		return
	}
	tr.stack = append(tr.stack, openSpan{name: name, cat: cat, startUS: tr.now()})
}

// End closes the innermost open span.
func (tr *Track) End() {
	if tr == nil || len(tr.stack) == 0 {
		return
	}
	top := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	end := tr.now()
	dur := end - top.startUS
	if dur < 0 {
		dur = 0
	}
	tr.spans = append(tr.spans, span{
		name:    top.name,
		cat:     top.cat,
		startUS: top.startUS,
		durUS:   dur,
		depth:   len(tr.stack),
	})
}

// TraceEvent is one Chrome trace-event object. Only the fields the
// trace-event format requires for complete ("X") and metadata ("M")
// events are modeled.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// Events flattens the tracer into trace events in deterministic order:
// tracks sorted by (group, name), pids assigned per group and tids per
// track in that order, process/thread name metadata first, then each
// track's spans in start order (outer before inner on ties).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	sort.SliceStable(tracks, func(i, j int) bool {
		if tracks[i].group != tracks[j].group {
			return tracks[i].group < tracks[j].group
		}
		return tracks[i].name < tracks[j].name
	})

	var out []TraceEvent
	pids := make(map[string]int)
	tids := make(map[string]int)
	for _, tr := range tracks {
		pid, ok := pids[tr.group]
		if !ok {
			pid = len(pids) + 1
			pids[tr.group] = pid
			out = append(out, TraceEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": tr.group},
			})
		}
		tids[tr.group]++
		tid := tids[tr.group]
		out = append(out, TraceEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": tr.name},
		})
		spans := append([]span(nil), tr.spans...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].startUS != spans[j].startUS {
				return spans[i].startUS < spans[j].startUS
			}
			return spans[i].depth < spans[j].depth
		})
		for _, s := range spans {
			out = append(out, TraceEvent{
				Name: s.name, Cat: s.cat, Phase: "X",
				TS: s.startUS, Dur: s.durUS, PID: pid, TID: tid,
			})
		}
	}
	return out
}

// WriteChromeTrace writes the tracer in Chrome trace-event JSON array
// format. Output is deterministic for virtual-clock tracers.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return writeTraceEvents(w, t.Events())
}

// writeTraceEvents writes events as a JSON array, one event per line for
// diffability.
func writeTraceEvents(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return fmt.Errorf("obs: write trace: %w", err)
			}
		}
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return bw.Flush()
}

// ReadChromeTrace parses a trace-event JSON array.
func ReadChromeTrace(r io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return out, nil
}

// ValidateTrace checks events against the trace-event format rules the
// viewers actually enforce: known phases, non-negative timestamps and
// durations, metadata naming, and per-thread X-event nesting (a complete
// event must either be disjoint from or fully contain any later event
// that starts inside it).
func ValidateTrace(events []TraceEvent) error {
	type tkey struct{ pid, tid int }
	open := make(map[tkey][]TraceEvent)
	for i, e := range events {
		switch e.Phase {
		case "M":
			if e.Name != "process_name" && e.Name != "thread_name" {
				return fmt.Errorf("obs: trace event %d: unknown metadata %q", i, e.Name)
			}
			if name, ok := e.Args["name"].(string); !ok || name == "" {
				return fmt.Errorf("obs: trace event %d: metadata without args.name", i)
			}
		case "X":
			if e.Name == "" {
				return fmt.Errorf("obs: trace event %d: unnamed complete event", i)
			}
			if e.TS < 0 || e.Dur < 0 {
				return fmt.Errorf("obs: trace event %d (%s): negative ts/dur", i, e.Name)
			}
			k := tkey{e.PID, e.TID}
			stack := open[k]
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if e.TS >= top.TS+top.Dur {
					stack = stack[:len(stack)-1]
					continue
				}
				if e.TS+e.Dur > top.TS+top.Dur {
					return fmt.Errorf("obs: trace event %d (%s): overlaps %s without nesting", i, e.Name, top.Name)
				}
				break
			}
			open[k] = append(stack, e)
		default:
			return fmt.Errorf("obs: trace event %d: unsupported phase %q", i, e.Phase)
		}
	}
	return nil
}

// PhaseStat is one phase's rollup across a trace: how often it ran, its
// total (inclusive) time and its self time with nested spans subtracted.
type PhaseStat struct {
	Name    string
	Count   int64
	TotalUS int64
	SelfUS  int64
}

// Rollup aggregates a trace's complete events per span name, computing
// self time by subtracting each span's directly nested children. Results
// sort by descending self time, name breaking ties.
func Rollup(events []TraceEvent) []PhaseStat {
	type tkey struct{ pid, tid int }
	agg := make(map[string]*PhaseStat)
	get := func(name string) *PhaseStat {
		s, ok := agg[name]
		if !ok {
			s = &PhaseStat{Name: name}
			agg[name] = s
		}
		return s
	}
	type frame struct {
		name  string
		endUS int64
	}
	stacks := make(map[tkey][]frame)
	for _, e := range events {
		if e.Phase != "X" {
			continue
		}
		k := tkey{e.PID, e.TID}
		stack := stacks[k]
		// Retire frames this event starts after.
		for len(stack) > 0 && e.TS >= stack[len(stack)-1].endUS {
			stack = stack[:len(stack)-1]
		}
		s := get(e.Name)
		s.Count++
		s.TotalUS += e.Dur
		s.SelfUS += e.Dur
		if len(stack) > 0 {
			// This span's time is nested inside its parent: remove it from
			// the parent's self time.
			get(stack[len(stack)-1].name).SelfUS -= e.Dur
		}
		stack = append(stack, frame{name: e.Name, endUS: e.TS + e.Dur})
		stacks[k] = stack
	}
	out := make([]PhaseStat, 0, len(agg))
	for _, s := range agg {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUS != out[j].SelfUS {
			return out[i].SelfUS > out[j].SelfUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}
