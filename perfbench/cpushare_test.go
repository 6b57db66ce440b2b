package main

import (
	"math"
	"path/filepath"
	"testing"

	"heb/internal/obs/prof"
)

// testdata/cpu.pb.gz is a CPU profile of hebsim -exp fig12a taken with
// hebsim -profile cpu.
func TestCPUSharesSumToOne(t *testing.T) {
	p, err := prof.ParseFile(filepath.Join("testdata", "cpu.pb.gz"))
	if err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(p)
	if err != nil {
		t.Fatal(err)
	}
	if samples <= 0 {
		t.Fatalf("fixture has %d samples", samples)
	}
	if len(shares) != len(cpuBuckets) {
		t.Fatalf("got %d buckets, want %d", len(shares), len(cpuBuckets))
	}
	sum := 0.0
	for _, b := range cpuBuckets {
		v, ok := shares[b]
		if !ok || v < 0 || v > 1 {
			t.Errorf("bucket %s = %v (present %v)", b, v, ok)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1", sum)
	}
	if shares["esd"] == 0 {
		t.Error("an engine profile attributes nothing to esd")
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"heb/internal/esd.(*Pool).transfer", "heb/internal/sim.(*Engine).step"}, "esd"},
		{[]string{"math.Pow", "heb/internal/esd.(*Supercap).leak", "heb/internal/sim.(*Engine).step"}, "esd"},
		{[]string{"encoding/json.appendCompact", "heb/internal/obs.WriteCheckpointsJSONL"}, "json"},
		{[]string{"strconv.AppendFloat", "heb/internal/jsonx.AppendFloat", "heb/internal/sim.(*Engine).emitCheckpoint"}, "json"},
		{[]string{"heb/internal/obs/alerts.(*Engine).observe"}, "obs"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "heb/internal/pat.(*Table).Add"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notesleep"}, "other"},
		{[]string{"heb.Prototype.run", "heb.Figure12"}, "other"},
		{[]string{"sort.Float64s", "heb/internal/runner.Map[go.shape.struct {}]"}, "other"},
		{[]string{"heb/internal/runner.MapWorkers[go.shape.struct { heb/internal/sim.x float64 }].func1"}, "other"},
		{nil, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
