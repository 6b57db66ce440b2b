package main

import (
	"path/filepath"
	"strings"
	"testing"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/registry/baseline"
)

// artifact builds one synthetic complete run with a chosen
// energy-efficiency value and optional alert health.
func artifact(scheme string, seed int64, eff float64, health string) obs.RunArtifact {
	a := obs.RunArtifact{
		Key: scheme + "|PR|1h|seed=" + string(rune('0'+seed)) + "|cfg=0011223344556677",
		Events: []obs.Event{
			{Seconds: 0, Kind: obs.EventRunStart, Server: -1, Detail: scheme},
		},
		Decisions: []obs.DecisionRecord{
			{Slot: 1, Mode: "split", Ratio: 0.5, Completed: true},
		},
		Steps: 3600,
		Slots: 1,
		Metrics: map[string]float64{
			"energy_efficiency": eff,
			"downtime_fraction": 0,
		},
	}
	if health != "" {
		crits := 0
		if health == alerts.HealthCritical {
			crits = 1
		}
		a.Alerts = &alerts.Report{Mode: "report", Events: 1, Warnings: 1 - crits,
			Criticals: crits, Health: health}
	}
	return a
}

func writeCapture(t *testing.T, dir string, arts ...obs.RunArtifact) obs.Manifest {
	t.Helper()
	c := obs.NewCapture()
	c.SetLabel("hebwatch-test")
	for _, a := range arts {
		c.Contribute(a)
	}
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScoreFlagsOutlierRun(t *testing.T) {
	root := t.TempDir()
	writeCapture(t, filepath.Join(root, "sweep"),
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""),
		artifact("HEB-D", 5, 0.85, ""),
		artifact("HEB-D", 6, 5.0, ""))
	var sb strings.Builder
	criticals, err := score(&sb, root, "", baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 1 {
		t.Fatalf("criticals = %d, want 1:\n%s", criticals, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "verdict=critical") || !strings.Contains(out, "worst=energy_efficiency") {
		t.Errorf("score output missing outlier line:\n%s", out)
	}
	if !strings.Contains(out, "6 runs scored: 1 critical") {
		t.Errorf("score summary wrong:\n%s", out)
	}
}

func TestScoreSingleRunAndUnknown(t *testing.T) {
	root := t.TempDir()
	m := writeCapture(t, filepath.Join(root, "sweep"),
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""))
	var sb strings.Builder
	criticals, err := score(&sb, root, m.Runs[0].ID, baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 0 || !strings.Contains(sb.String(), "1 runs scored") {
		t.Fatalf("single-run score = %d criticals:\n%s", criticals, sb.String())
	}
	if _, err := score(&sb, root, "nope", baseline.Window{}); err == nil {
		t.Fatal("unknown run ID scored")
	}
}

func TestScoreEscalatesUnhealthyRun(t *testing.T) {
	root := t.TempDir()
	writeCapture(t, filepath.Join(root, "sweep"),
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, alerts.HealthCritical),
		artifact("HEB-D", 4, 0.84, ""),
		artifact("HEB-D", 5, 0.85, ""))
	var sb strings.Builder
	criticals, err := score(&sb, root, "", baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 1 || !strings.Contains(sb.String(), "health=critical") {
		t.Fatalf("unhealthy run not escalated (%d criticals):\n%s", criticals, sb.String())
	}
}

func TestDiffFlagsCohortDrift(t *testing.T) {
	root := t.TempDir()
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	writeCapture(t, a,
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""))
	// Cohort B collapsed to a quarter of A's efficiency: critical drift.
	writeCapture(t, b,
		artifact("HEB-D", 1, 0.20, ""),
		artifact("HEB-D", 2, 0.21, ""),
		artifact("HEB-D", 3, 0.22, ""),
		artifact("HEB-D", 4, 0.23, ""))
	var sb strings.Builder
	criticals, err := diff(&sb, a, b, baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals == 0 || !strings.Contains(sb.String(), "HEB-D|PR|energy_efficiency") {
		t.Fatalf("drift not flagged (%d criticals):\n%s", criticals, sb.String())
	}
}

func TestDiffIdenticalTreesClean(t *testing.T) {
	root := t.TempDir()
	a, b := filepath.Join(root, "a"), filepath.Join(root, "b")
	arts := []obs.RunArtifact{
		artifact("HEB-D", 1, 0.81, ""),
		artifact("HEB-D", 2, 0.82, ""),
		artifact("HEB-D", 3, 0.83, ""),
		artifact("HEB-D", 4, 0.84, ""),
	}
	writeCapture(t, a, arts...)
	writeCapture(t, b, arts...)
	var sb strings.Builder
	criticals, err := diff(&sb, a, b, baseline.Window{})
	if err != nil {
		t.Fatal(err)
	}
	if criticals != 0 || !strings.Contains(sb.String(), "0 critical, 0 warn") {
		t.Fatalf("identical trees diffed dirty (%d criticals):\n%s", criticals, sb.String())
	}
}
