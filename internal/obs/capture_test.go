package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func artifactA() RunArtifact {
	return RunArtifact{
		Key: "HEB-D|PR|1h|seed=1",
		Events: []Event{
			{Seconds: 0, Kind: EventRunStart, Server: -1, Detail: "HEB-D"},
			{Seconds: 3600, Kind: EventRunEnd, Server: -1},
		},
		Decisions:     []DecisionRecord{sampleRecord(1, "split", 0.6)},
		Steps:         3600,
		MismatchSteps: 40,
		Slots:         6,
		RelaySwitches: map[string]int64{"battery": 3, "off": 1},
		PATLookups:    6,
		PATMisses:     2,
	}
}

func artifactB() RunArtifact {
	return RunArtifact{
		Key: "BaOnly|PR|1h|seed=1",
		Events: []Event{
			{Seconds: 0, Kind: EventRunStart, Server: -1, Detail: "BaOnly"},
		},
		Decisions: []DecisionRecord{sampleRecord(1, "battery-only", 0)},
		Steps:     3600,
		Slots:     6,
	}
}

func captureFiles(t *testing.T, contribute func(*Capture)) map[string]string {
	t.Helper()
	dir := t.TempDir()
	c := NewCapture()
	contribute(c)
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string)
	for _, name := range []string{"events.jsonl", "decisions.jsonl", "metrics.prom"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		out[name] = string(b)
	}
	return out
}

func TestCaptureOrderIndependence(t *testing.T) {
	ab := captureFiles(t, func(c *Capture) {
		c.Contribute(artifactA())
		c.Contribute(artifactB())
	})
	ba := captureFiles(t, func(c *Capture) {
		c.Contribute(artifactB())
		c.Contribute(artifactA())
	})
	var wg sync.WaitGroup
	par := captureFiles(t, func(c *Capture) {
		for _, a := range []RunArtifact{artifactA(), artifactB()} {
			wg.Add(1)
			go func(a RunArtifact) {
				defer wg.Done()
				c.Contribute(a)
			}(a)
		}
		wg.Wait()
	})
	for name := range ab {
		if ab[name] != ba[name] {
			t.Errorf("%s differs between contribution orders", name)
		}
		if ab[name] != par[name] {
			t.Errorf("%s differs under concurrent contribution", name)
		}
	}
}

func TestCaptureStampsRunKeys(t *testing.T) {
	files := captureFiles(t, func(c *Capture) { c.Contribute(artifactA()) })
	events, err := ReadEvents(bytes.NewBufferString(files["events.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Run != "HEB-D|PR|1h|seed=1" {
			t.Fatalf("event missing run stamp: %+v", e)
		}
	}
	decisions, err := ReadDecisions(bytes.NewBufferString(files["decisions.jsonl"]))
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 || decisions[0].Run != "HEB-D|PR|1h|seed=1" {
		t.Fatalf("decisions = %+v", decisions)
	}
}

func TestCaptureMetricsContent(t *testing.T) {
	files := captureFiles(t, func(c *Capture) {
		c.Contribute(artifactA())
		c.Contribute(artifactB())
	})
	prom := files["metrics.prom"]
	for _, want := range []string{
		"heb_capture_runs_total 2",
		"heb_engine_steps_total 7200",
		"heb_engine_mismatch_steps_total 40",
		"heb_control_slots_total 12",
		`heb_power_relay_switches_total{position="battery"} 3`,
		`heb_power_relay_switches_total{position="off"} 1`,
		`heb_obs_events_total{kind="run_start"} 2`,
		"heb_pat_lookups_total 6",
		"heb_pat_misses_total 2",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("metrics.prom missing %q\n%s", want, prom)
		}
	}
}

func TestCaptureEventCap(t *testing.T) {
	c := NewCapture()
	if c.EventCap() != DefaultEventCap {
		t.Fatalf("default cap = %d", c.EventCap())
	}
}
