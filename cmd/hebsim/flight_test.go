package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heb"
	"heb/internal/obs"
)

// TestCheckpointAppenderMatchesCapture checks that the write-through
// checkpoint file and the capture's checkpoints.jsonl come from one
// record encoder: for a single run checkpointed every slot with probes
// on, the appender's file equals the one WriteFiles writes, byte for
// byte, once the appender carries the capture's run label.
func TestCheckpointAppenderMatchesCapture(t *testing.T) {
	const d = time.Hour
	pr, err := heb.WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wl := pr.WithDuration(d)
	proto := func() heb.Prototype {
		p := heb.DefaultPrototype()
		p.Capture = obs.NewCapture()
		p.CheckpointEvery = 1
		p.ProbeEvery = 60
		return p
	}

	// The run key is stamped by the capture; learn it from a first run.
	first := proto()
	if _, err := first.Run(heb.HEBD, wl, heb.RunOptions{Duration: d}); err != nil {
		t.Fatal(err)
	}
	runs := first.Capture.Runs()
	if len(runs) != 1 {
		t.Fatalf("capture holds %d runs, want 1", len(runs))
	}

	p := proto()
	live := filepath.Join(t.TempDir(), "live", "checkpoints.jsonl")
	sink, err := newCheckpointAppender(live, false, runs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(heb.HEBD, wl, heb.RunOptions{Duration: d, CheckpointSink: sink}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := p.Capture.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("write-through file (%d bytes) differs from the capture's checkpoints.jsonl (%d bytes)", len(got), len(want))
	}
}
