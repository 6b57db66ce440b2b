package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"heb/internal/obs/alerts"
)

// TestManifestLifecycle walks the full capture lifecycle a killed-and-
// resumed sweep goes through: StartManifest leaves a "running" marker, a
// later process finding it marks "killed", a fresh StartManifest takes
// over, and WriteFiles lands the complete manifest with the run index
// and artifact inventory.
func TestManifestLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Writer starts: status running, no runs yet.
	if err := StartManifest(dir, "all"); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusRunning || m.Label != "all" || len(m.Runs) != 0 {
		t.Fatalf("running manifest = %+v", m)
	}

	// Writer dies; the resume path finds "running" and marks killed.
	if err := SetManifestStatus(dir, StatusKilled); err != nil {
		t.Fatal(err)
	}
	if m, err = ReadManifest(dir); err != nil || m.Status != StatusKilled {
		t.Fatalf("killed transition: %+v, %v", m, err)
	}
	if m.Label != "all" {
		t.Fatalf("SetManifestStatus dropped label: %+v", m)
	}

	// The resume takes over and completes the capture.
	if err := StartManifest(dir, "all"); err != nil {
		t.Fatal(err)
	}
	c := NewCapture()
	c.SetLabel("all")
	c.Contribute(artifactA())
	c.Contribute(artifactB())
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err = ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Status != StatusComplete || len(m.Runs) != 2 {
		t.Fatalf("complete manifest = %+v", m)
	}
	if len(m.Artifacts) == 0 {
		t.Fatal("complete manifest carries no artifact inventory")
	}
	for _, a := range m.Artifacts {
		if a.Name == ManifestName {
			t.Fatal("manifest inventories itself")
		}
		fi, err := os.Stat(filepath.Join(dir, a.Name))
		if err != nil || fi.Size() != a.Bytes {
			t.Fatalf("inventory %s: %v, size %d vs %d", a.Name, err, fi.Size(), a.Bytes)
		}
	}
}

// TestManifestRunRows pins the per-run index row content for a known
// artifact: parsed key fields, stable ID, counters and byte share.
func TestManifestRunRows(t *testing.T) {
	c := NewCapture()
	c.Contribute(artifactA())
	m := c.BuildManifest()
	if len(m.Runs) != 1 {
		t.Fatalf("%d runs", len(m.Runs))
	}
	rm := m.Runs[0]
	if rm.Scheme != "HEB-D" || rm.Workload != "PR" || rm.DurationSeconds != 3600 || rm.Seed != 1 {
		t.Errorf("parsed key fields: %+v", rm)
	}
	if rm.Status != StatusComplete || rm.Bytes <= 0 {
		t.Errorf("row status/bytes: %+v", rm)
	}
	if rm.Summary.Events != 2 || rm.Summary.Decisions != 1 || rm.Summary.Steps != 3600 {
		t.Errorf("summary counters: %+v", rm.Summary)
	}
	if rm.Summary.RelaySwitches != 4 {
		t.Errorf("relay switches = %d, want 4", rm.Summary.RelaySwitches)
	}
	if rm.ID == "" || len(rm.ID) != 12 {
		t.Errorf("run ID %q not 12 hex chars", rm.ID)
	}
	// Same artifact → same ID, every time.
	c2 := NewCapture()
	c2.Contribute(artifactA())
	if id2 := c2.BuildManifest().Runs[0].ID; id2 != rm.ID {
		t.Errorf("run ID unstable: %s vs %s", rm.ID, id2)
	}
}

// TestManifestDeterministicBytes checks the serialized manifest is
// byte-identical regardless of contribution order (the registry and the
// workers-determinism guarantee both lean on this).
func TestManifestDeterministicBytes(t *testing.T) {
	render := func(contribute func(*Capture)) []byte {
		c := NewCapture()
		contribute(c)
		raw, err := json.MarshalIndent(c.BuildManifest(), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	ab := render(func(c *Capture) { c.Contribute(artifactA()); c.Contribute(artifactB()) })
	ba := render(func(c *Capture) { c.Contribute(artifactB()); c.Contribute(artifactA()) })
	if string(ab) != string(ba) {
		t.Error("manifest bytes depend on contribution order")
	}
}

// TestReadManifestRejectsNewerVersion pins the forward-compat contract.
func TestReadManifestRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	if err := WriteManifest(dir, Manifest{V: ManifestVersion + 1, Status: StatusComplete}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("newer-version manifest accepted")
	}
}

// TestWriteManifestLeavesNoTempFiles checks the atomic-install path
// cleans up after itself.
func TestWriteManifestLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := StartManifest(dir, ""); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != ManifestName {
		t.Fatalf("dir holds %v, want only %s", ents, ManifestName)
	}
}

// TestManifestRunBytesAttributeJSONL pins each run's Bytes to its own
// slice of the JSONL artifacts: a run's share in a two-run capture equals
// the JSONL bytes a capture of that run alone writes, the shares add up
// to the JSONL files on disk, and BuildManifest agrees with WriteFiles.
func TestManifestRunBytesAttributeJSONL(t *testing.T) {
	a := artifactA()
	a.Probes = []ProbeSample{{Seconds: 60, Device: "battery/0", SoC: 0.5}}
	a.Audit = &AuditReport{Mode: "report", Steps: 3600, Passed: true}
	a.AlertEvents = []alerts.Event{{Seconds: 120, Device: "battery/0", Value: 2, Limit: 1}}
	b := artifactB()
	b.Checkpoints = deltaChain(t)
	jsonlBytes := func(runs ...RunArtifact) (int64, Manifest) {
		t.Helper()
		dir := t.TempDir()
		c := NewCapture()
		for _, r := range runs {
			c.Contribute(r)
		}
		if err := c.WriteFiles(dir); err != nil {
			t.Fatal(err)
		}
		m, err := ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		built := c.BuildManifest()
		var total int64
		for _, art := range m.Artifacts {
			if art.Name != "metrics.prom" {
				total += art.Bytes
			}
		}
		for i, rm := range m.Runs {
			if built.Runs[i].Bytes != rm.Bytes {
				t.Errorf("run %s: BuildManifest bytes %d, WriteFiles %d", rm.Key, built.Runs[i].Bytes, rm.Bytes)
			}
		}
		return total, m
	}
	aBytes, _ := jsonlBytes(a)
	bBytes, _ := jsonlBytes(b)
	total, m := jsonlBytes(a, b)
	if len(m.Artifacts) != len(ArtifactNames) {
		t.Fatalf("capture wrote %d artifacts, want all %d: %+v", len(m.Artifacts), len(ArtifactNames), m.Artifacts)
	}
	if total != aBytes+bBytes {
		t.Fatalf("JSONL total %d, want %d + %d", total, aBytes, bBytes)
	}
	for _, rm := range m.Runs {
		want := map[string]int64{a.Key: aBytes, b.Key: bBytes}[rm.Key]
		if rm.Bytes != want {
			t.Errorf("run %s: bytes %d, want %d", rm.Key, rm.Bytes, want)
		}
	}
}
