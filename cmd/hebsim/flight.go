package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"heb"
	"heb/internal/obs"
)

// flight carries the flight-recorder flags (-checkpoint-every, -resume,
// -replay) into the single-run path. All three operate on
// <obs-dir>/checkpoints.jsonl.
type flight struct {
	dir    string
	every  int
	resume bool
	replay string
}

func (f flight) enabled() bool { return f.every > 0 || f.resume || f.replay != "" }

func (f flight) path() string { return filepath.Join(f.dir, "checkpoints.jsonl") }

// wireFlight loads/validates the prior chain for -resume and -replay,
// installs the write-through checkpoint appender for -checkpoint-every,
// and (for replay) attaches the window collectors. It returns a non-nil
// replayWindow when a windowed replay is armed.
func wireFlight(w io.Writer, p *heb.Prototype, opts *heb.RunOptions, fl flight) (*replayWindow, error) {
	var prior []obs.CheckpointRecord
	if fl.resume || fl.replay != "" {
		f, err := os.Open(fl.path())
		if err != nil {
			return nil, fmt.Errorf("flight recorder: %w", err)
		}
		records, rerr := obs.ReadCheckpoints(f)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		if err := obs.ValidateCheckpoints(records); err != nil {
			return nil, err
		}
		if len(records) == 0 {
			return nil, fmt.Errorf("flight recorder: no checkpoints in %s", fl.path())
		}
		prior = records
	}
	slotSteps := int(p.Slot / p.Step)
	if slotSteps < 1 {
		slotSteps = 1
	}

	if fl.replay != "" {
		runKey, a, b, err := parseReplayWindow(fl.replay)
		if err != nil {
			return nil, err
		}
		group := lastRunGroup(prior, runKey)
		if len(group) == 0 {
			return nil, fmt.Errorf("flight recorder: no checkpoints for run %q in %s", runKey, fl.path())
		}
		// The nearest usable checkpoint is the last one taken at or
		// before the start of slot a (record Slot counts completed slots,
		// so slot a starts at record Slot a-1). Everything between it and
		// the window is fast-forwarded by re-execution.
		idx := -1
		for i, r := range group {
			if r.Slot <= a-1 {
				idx = i
			}
		}
		if idx >= 0 {
			from := group[idx]
			opts.ResumeCheckpoints = group[:idx+1]
			fmt.Fprintf(w, "replay slots %d-%d: fast-forward from checkpoint at slot %d (step %d, t=%gs)\n",
				a, b, from.Slot, from.Step, from.Seconds)
		} else {
			fmt.Fprintf(w, "replay slots %d-%d: no checkpoint at or before slot %d, re-executing from scratch\n",
				a, b, a-1)
		}
		opts.MaxSteps = b * slotSteps
		win := &replayWindow{a: a, b: b, slotSecs: p.Slot.Seconds(), events: obs.NewLog(0)}
		userEvents := opts.Events
		opts.Events = obs.MultiSink(userEvents, win.events)
		userTrace := opts.DecisionTrace
		opts.DecisionTrace = func(r obs.DecisionRecord) {
			win.decisions = append(win.decisions, r)
			if userTrace != nil {
				userTrace(r)
			}
		}
		return win, nil
	}

	groupRun := ""
	if fl.resume {
		group := lastRunGroup(prior, "")
		last := group[len(group)-1]
		groupRun = last.Run
		opts.ResumeCheckpoints = group
		fmt.Fprintf(w, "resuming from checkpoint at slot %d (step %d, t=%gs), %d prior records\n",
			last.Slot, last.Step, last.Seconds, len(group))
	}
	if fl.every > 0 {
		sink, err := newCheckpointAppender(fl.path(), fl.resume, groupRun)
		if err != nil {
			return nil, err
		}
		opts.CheckpointSink = sink
	}
	return nil, nil
}

// lastRunGroup selects one run's records from a (possibly multi-run)
// chain file: the given run key, or the run of the last record when the
// key is empty.
func lastRunGroup(records []obs.CheckpointRecord, runKey string) []obs.CheckpointRecord {
	if len(records) == 0 {
		return nil
	}
	if runKey == "" {
		runKey = records[len(records)-1].Run
	}
	var out []obs.CheckpointRecord
	for _, r := range records {
		if r.Run == runKey {
			out = append(out, r)
		}
	}
	return out
}

// parseReplayWindow parses "[run:]A-B" (1-based control-slot ordinals,
// inclusive). The run key may itself contain ':' — the window is split
// off at the last colon.
func parseReplayWindow(s string) (runKey string, a, b int, err error) {
	window := s
	if i := strings.LastIndex(s, ":"); i >= 0 {
		runKey, window = s[:i], s[i+1:]
	}
	if _, err := fmt.Sscanf(window, "%d-%d", &a, &b); err != nil {
		return "", 0, 0, fmt.Errorf("flight recorder: bad replay window %q (want [run:]A-B)", s)
	}
	if a < 1 || b < a {
		return "", 0, 0, fmt.Errorf("flight recorder: bad replay window %d-%d (want 1 <= A <= B)", a, b)
	}
	return runKey, a, b, nil
}

// newCheckpointAppender opens the write-through checkpoints.jsonl sink:
// truncating for a fresh run, appending for a resume (the prior records
// are already in the file). Each record is written immediately, so a
// killed run still leaves a valid chain behind. Appended records inherit
// the prior group's run label to keep the file a single valid chain.
func newCheckpointAppender(path string, resume bool, groupRun string) (func(obs.CheckpointRecord), error) {
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("flight recorder: %w", err)
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("flight recorder: %w", err)
	}
	return func(r obs.CheckpointRecord) {
		if r.Run == "" {
			r.Run = groupRun
		}
		if err := obs.WriteCheckpointsJSONL(f, []obs.CheckpointRecord{r}); err != nil {
			slog.Warn("write checkpoint failed", "err", err)
		}
	}, nil
}

// replayWindow collects the replayed run's events and decisions and
// reports the requested slot window at full resolution.
type replayWindow struct {
	a, b      int
	slotSecs  float64
	events    *obs.Log
	decisions []obs.DecisionRecord
}

// report prints the window's decision records and discrete events.
func (rw *replayWindow) report(w io.Writer) {
	lo := float64(rw.a-1) * rw.slotSecs
	hi := float64(rw.b) * rw.slotSecs
	fmt.Fprintf(w, "\n--- replay window: slots %d-%d (t=%g-%gs) ---\n", rw.a, rw.b, lo, hi)
	fmt.Fprintf(w, "%5s %-14s %7s %11s %11s %11s %9s\n",
		"slot", "mode", "ratio", "predPeak(W)", "actPeak(W)", "scFracEnd", "complete")
	for _, d := range rw.decisions {
		if d.Slot < rw.a || d.Slot > rw.b {
			continue
		}
		fmt.Fprintf(w, "%5d %-14s %7.3f %11.1f %11.1f %11.3f %9v\n",
			d.Slot, d.Mode, d.Ratio, d.PredictedPeakW, d.ActualPeakW, d.SCFracEnd, d.Completed)
	}
	n := 0
	for _, e := range rw.events.Events() {
		if e.Seconds < lo || e.Seconds >= hi {
			continue
		}
		if n == 0 {
			fmt.Fprintln(w, "events:")
		}
		n++
		line := fmt.Sprintf("  t=%-8g %-18s server=%d", e.Seconds, e.Kind, e.Server)
		if e.From != "" || e.To != "" {
			line += fmt.Sprintf(" %s->%s", e.From, e.To)
		}
		if e.Watts != 0 {
			line += fmt.Sprintf(" %.1fW", e.Watts)
		}
		if e.Detail != "" {
			line += " " + e.Detail
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%d events in window\n", n)
}
