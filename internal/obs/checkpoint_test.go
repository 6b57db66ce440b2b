package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"heb/internal/pat"
)

// TestKeyframeCadence pins the delta schedule: chain index 0 is always a
// keyframe, every index divisible by the cadence is a keyframe, and a
// cadence of 1 (or less) disables deltas entirely.
func TestKeyframeCadence(t *testing.T) {
	l := NewCheckpointLog()
	for i := 0; i < 20; i++ {
		wantDelta := i%8 != 0
		if got := l.NextIsDelta(8); got != wantDelta {
			t.Errorf("record %d: NextIsDelta(8) = %v, want %v", i, got, wantDelta)
		}
		if l.NextIsDelta(1) {
			t.Errorf("record %d: NextIsDelta(1) must always be false", i)
		}
		l.Append(i, i*600, float64(i*600), json.RawMessage(`{}`), wantDelta)
	}
}

// TestSeededLogContinuesCadence checks the resume property the engine
// relies on: a log seeded with an interrupted run's records continues the
// exact keyframe/delta sequence an uninterrupted run would have produced.
func TestSeededLogContinuesCadence(t *testing.T) {
	full := NewCheckpointLog()
	var fullDeltas []bool
	for i := 0; i < 12; i++ {
		d := full.NextIsDelta(8)
		fullDeltas = append(fullDeltas, d)
		full.Append(i, i*600, float64(i*600), json.RawMessage(`{}`), d)
	}

	// Interrupt after 5 records, seed a new log with them, keep going.
	resumed := NewCheckpointLog()
	resumed.Seed(full.Records()[:5])
	for i := 5; i < 12; i++ {
		if got := resumed.NextIsDelta(8); got != fullDeltas[i] {
			t.Fatalf("record %d: resumed cadence %v, want %v", i, got, fullDeltas[i])
		}
		resumed.Append(i, i*600, float64(i*600), json.RawMessage(`{}`), fullDeltas[i])
	}
	if !reflect.DeepEqual(resumed.Records(), full.Records()) {
		t.Fatal("resumed chain differs from uninterrupted chain")
	}
}

// deltaChain builds a 3-record chain — keyframe, then two deltas — whose
// state documents exercise every splice rule: array splices with @base
// offsets, nested-object recursion, wholesale replacement, and key drops.
func deltaChain(tb testing.TB) []CheckpointRecord {
	tb.Helper()
	l := NewCheckpointLog()
	l.Append(0, 0, 0, json.RawMessage(
		`{"series":[1,2],"nested":{"inner":[10],"scalar":"a"},"gone":true,"x":1}`), false)
	l.Append(1, 600, 600, json.RawMessage(
		`{"series":[3],"series@base":2,"nested":{"inner":[20],"inner@base":1,"scalar":"b"},"x":2}`), true)
	l.Append(2, 1200, 1200, json.RawMessage(
		`{"series":[4,5],"series@base":3,"nested":{"inner":[],"inner@base":2,"scalar":"c"},"x":3}`), true)
	return l.Records()
}

// TestMaterializeAtSplicesDeltas checks full reconstruction through a
// delta chain: series grow by suffix, nested series recurse, scalars
// replace, and keys absent from a delta are dropped.
func TestMaterializeAtSplicesDeltas(t *testing.T) {
	records := deltaChain(t)
	if err := ValidateCheckpoints(records); err != nil {
		t.Fatal(err)
	}

	// Keyframes come back byte-identical.
	state, err := MaterializeAt(records, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != string(records[0].State) {
		t.Fatalf("keyframe state not byte-identical: %s", state)
	}

	for i, want := range []map[string]any{
		nil, // index 0 checked above
		{
			"series": []any{1.0, 2.0, 3.0},
			"nested": map[string]any{"inner": []any{10.0, 20.0}, "scalar": "b"},
			"x":      2.0,
		},
		{
			"series": []any{1.0, 2.0, 3.0, 4.0, 5.0},
			"nested": map[string]any{"inner": []any{10.0, 20.0}, "scalar": "c"},
			"x":      3.0,
		},
	} {
		if want == nil {
			continue
		}
		raw, err := MaterializeAt(records, i)
		if err != nil {
			t.Fatalf("materialize %d: %v", i, err)
		}
		var got map[string]any
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("materialize %d:\n got %v\nwant %v", i, got, want)
		}
		if _, ok := got["gone"]; ok {
			t.Errorf("materialize %d: key absent from delta survived", i)
		}
	}
}

// TestMaterializeKeyedMerge checks the @mergekey/@drop splice through a
// full chain: dropped identities leave (order preserved), upserts of a
// known identity replace in place, and new identities append in delta
// order. The merge key is a struct-valued field, the shape the PAT's
// TablePatch emits.
func TestMaterializeKeyedMerge(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(0, 0, 0, json.RawMessage(
		`{"entries":[{"Key":{"A":1},"V":1},{"Key":{"A":2},"V":2},{"Key":{"A":3},"V":3}],"x":1}`), false)
	l.Append(1, 600, 600, json.RawMessage(
		`{"entries":[{"Key":{"A":2},"V":22},{"Key":{"A":4},"V":4}],`+
			`"entries@mergekey":"Key","entries@drop":[{"A":3}],"x":2}`), true)
	records := l.Records()
	if err := ValidateCheckpoints(records); err != nil {
		t.Fatal(err)
	}
	raw, err := MaterializeAt(records, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := []any{
		map[string]any{"Key": map[string]any{"A": 1.0}, "V": 1.0},
		map[string]any{"Key": map[string]any{"A": 2.0}, "V": 22.0},
		map[string]any{"Key": map[string]any{"A": 4.0}, "V": 4.0},
	}
	if !reflect.DeepEqual(got["entries"], want) {
		t.Fatalf("keyed merge:\n got %v\nwant %v", got["entries"], want)
	}
	if _, ok := got["entries@mergekey"]; ok {
		t.Fatal("companion key materialized into the state document")
	}
}

// TestMaterializePATPatch is the cross-package contract test: a real
// pat.Table's CheckpointPatch, spliced against the keyframe's full
// TableState, must materialize back into a document TableState
// unmarshals and Restore accepts — ending in exactly the live table.
func TestMaterializePATPatch(t *testing.T) {
	tab := pat.MustNew(pat.DefaultConfig())
	tab.Add(0.1, 0.9, 10, 0.4)
	tab.Add(0.5, 0.5, 50, 0.5)
	tab.TrackChanges()

	key, err := json.Marshal(map[string]any{"pat": tab.Checkpoint()})
	if err != nil {
		t.Fatal(err)
	}
	tab.MarkCheckpointed()
	tab.Update(0.1, 0.9, 10, 0.4, pat.DriftBatteryFast)
	tab.Add(0.8, 0.2, 90, 0.7)
	patch, err := tab.CheckpointPatch()
	if err != nil {
		t.Fatal(err)
	}
	del, err := json.Marshal(map[string]any{"pat": patch})
	if err != nil {
		t.Fatal(err)
	}

	l := NewCheckpointLog()
	l.Append(0, 0, 0, key, false)
	l.Append(1, 600, 600, del, true)
	raw, err := MaterializeAt(l.Records(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PAT pat.TableState `json:"pat"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	restored := pat.MustNew(tab.Config())
	if err := restored.Restore(doc.PAT); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(restored.Checkpoint())
	want, _ := json.Marshal(tab.Checkpoint())
	if string(got) != string(want) {
		t.Fatalf("materialized PAT drifted from live table:\n got %s\nwant %s", got, want)
	}
}

// TestSpliceKeyedMergeErrors pins the malformed-patch failures: a merge
// key that is not a string, elements that are not objects, a drop list
// that is not an array, and a delta value that is not an array must all
// error instead of corrupting the materialized state.
func TestSpliceKeyedMergeErrors(t *testing.T) {
	prev := map[string]any{"entries": []any{map[string]any{"k": 1.0}}}
	for name, delta := range map[string]string{
		"merge key not a string": `{"entries":[],"entries@mergekey":7}`,
		"element not an object":  `{"entries":[42],"entries@mergekey":"k"}`,
		"drop list not an array": `{"entries":[],"entries@mergekey":"k","entries@drop":"k"}`,
		"delta value not array":  `{"entries":{"k":1},"entries@mergekey":"k"}`,
	} {
		var dm map[string]any
		if err := json.Unmarshal(json.RawMessage(delta), &dm); err != nil {
			t.Fatal(err)
		}
		if _, err := spliceCheckpointDelta(prev, dm); err == nil {
			t.Errorf("%s: splice accepted malformed delta %s", name, delta)
		}
	}
}

// TestMaterializeAtSkipsForeignRuns checks multi-run captures: the
// backward scan to the keyframe must only follow records of the same run.
func TestMaterializeAtSkipsForeignRuns(t *testing.T) {
	records := deltaChain(t)
	for i := range records {
		records[i].Run = "a"
	}
	// Interleave another run's keyframe between a's keyframe and deltas.
	foreign := CheckpointRecord{V: CheckpointVersion, Run: "b", Slot: 0, State: json.RawMessage(`{"series":[99]}`)}
	foreign.Hash = HashCheckpoint(foreign)
	mixed := []CheckpointRecord{records[0], foreign, records[1], records[2]}

	raw, err := MaterializeAt(mixed, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got["series"], []any{1.0, 2.0, 3.0, 4.0, 5.0}) {
		t.Fatalf("delta spliced against the wrong run's keyframe: %v", got["series"])
	}
}

// TestMaterializeAtBadOffset rejects a splice offset beyond the previous
// series length instead of silently corrupting state.
func TestMaterializeAtBadOffset(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(0, 0, 0, json.RawMessage(`{"series":[1]}`), false)
	l.Append(1, 600, 600, json.RawMessage(`{"series":[2],"series@base":5}`), true)
	if _, err := MaterializeAt(l.Records(), 1); err == nil || !strings.Contains(err.Error(), "beyond previous length") {
		t.Fatalf("offset beyond previous length not rejected: %v", err)
	}
}

// TestValidateMixedVersionChain accepts a pre-upgrade v1 prefix continued
// by v2 records — the shape a capture resumed across the format upgrade
// produces — while rejecting the malformed variants.
func TestValidateMixedVersionChain(t *testing.T) {
	mk := func(v, slot int, delta bool, prev string) CheckpointRecord {
		r := CheckpointRecord{V: v, Slot: slot, Step: slot * 600, Seconds: float64(slot * 600),
			State: json.RawMessage(`{}`), Delta: delta, Prev: prev}
		r.Hash = HashCheckpoint(r)
		return r
	}
	v1 := mk(1, 0, false, "")
	v2key := mk(2, 1, false, v1.Hash)
	v2delta := mk(2, 2, true, v2key.Hash)
	if err := ValidateCheckpoints([]CheckpointRecord{v1, v2key, v2delta}); err != nil {
		t.Fatalf("mixed v1/v2 chain rejected: %v", err)
	}

	// A delta stamped v1 is malformed.
	badV1Delta := mk(1, 3, true, v2delta.Hash)
	if err := ValidateCheckpoints([]CheckpointRecord{v1, v2key, v2delta, badV1Delta}); err == nil {
		t.Fatal("v1 delta record accepted")
	}
	// A chain may not open with a delta.
	orphan := mk(2, 0, true, "")
	if err := ValidateCheckpoints([]CheckpointRecord{orphan}); err == nil {
		t.Fatal("chain opening with a delta accepted")
	}
	// A future schema version must be refused.
	future := mk(CheckpointVersion+1, 0, false, "")
	if err := ValidateCheckpoints([]CheckpointRecord{future}); err == nil {
		t.Fatal("future schema version accepted")
	}
}

// probeChain builds a keyframe+delta chain whose states are probe
// recorder snapshots — float-heavy JSON, the bulk of a flight-recorder
// record — growing by perRecord samples per device each record. Every
// record carries run, a label with characters encoding/json escapes.
func probeChain(tb testing.TB, records, perRecord int, run string) []CheckpointRecord {
	tb.Helper()
	r := NewProbeRecorder(0)
	l := NewCheckpointLog()
	sec := 0.0
	for i := 0; i < records; i++ {
		for j := 0; j < perRecord; j++ {
			sec += 60
			x := sec / 3600
			r.Record("battery/0", sec, 0.5+0.4*math.Sin(x), 24+math.Cos(x), 40*math.Sin(x/3), 60+x, x*1.7, x*x/7)
			r.Record("supercap/0", sec, 0.9-0.1*math.Cos(x), 12.5+math.Sin(x), 1.25*x, 0, x/3, -x/11)
		}
		state, err := json.Marshal(r.State())
		if err != nil {
			tb.Fatal(err)
		}
		l.AppendOwned(i+1, (i+1)*600, sec, state, l.NextIsDelta(DefaultKeyframeEvery))
	}
	recs := l.Records()
	for i := range recs {
		recs[i].Run = run
	}
	return recs
}

// encodeCheckpoints is WriteCheckpointsJSONL into a byte slice.
func encodeCheckpoints(tb testing.TB, records []CheckpointRecord) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpointsJSONL(&buf, records); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// referenceReadCheckpoints is the plain json.Decoder loop ReadCheckpoints
// must agree with on every input.
func referenceReadCheckpoints(r io.Reader) ([]CheckpointRecord, error) {
	var out []CheckpointRecord
	dec := json.NewDecoder(r)
	for {
		var rec CheckpointRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: read checkpoints: %w", err)
		}
		out = append(out, rec)
	}
}

// TestReadCheckpointsFastPathTakesWriterOutput pins that every line
// WriteCheckpointsJSONL emits — keyframes, deltas, v1 records, an escaped
// run label, a chain head without prev — parses on the single-scan path,
// not the json.Decoder fallback, and round-trips exactly.
func TestReadCheckpointsFastPathTakesWriterOutput(t *testing.T) {
	records := probeChain(t, 10, 3, `HEB-D|PR "x" <y>&z`+" ")
	v1 := CheckpointRecord{V: 1, Slot: 11, Step: 6600, Seconds: 6600, State: json.RawMessage(`[1,"a",null]`), Prev: records[9].Hash}
	v1.Hash = HashCheckpoint(v1)
	records = append(records, v1, CheckpointRecord{V: 2, State: json.RawMessage(`{}`), Hash: "h"})
	raw := encodeCheckpoints(t, records)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	if len(lines) != len(records) {
		t.Fatalf("%d lines for %d records", len(lines), len(records))
	}
	for i, line := range lines {
		if rec, ok := canonicalCheckpoint(line); !ok || !reflect.DeepEqual(rec, records[i]) {
			t.Errorf("line %d: fast path gave %+v, want %+v", i, rec, records[i])
		}
	}
	got, err := ReadCheckpoints(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, records) {
		t.Error("ReadCheckpoints did not round-trip the written chain")
	}
}

// FuzzReadCheckpoints checks the single-scan reader against a plain
// json.Decoder loop: it must never panic, must return identical records,
// and must fail exactly when (and as) the decoder does.
func FuzzReadCheckpoints(f *testing.F) {
	records := deltaChain(f)
	for i := range records {
		records[i].Run = "HEB-D|PR|1h|seed=1"
	}
	chain := encodeCheckpoints(f, records)
	lines := bytes.SplitAfter(chain, []byte("\n"))
	v1 := CheckpointRecord{V: 1, Slot: 1, Step: 600, Seconds: 600, State: json.RawMessage(`{"a":[1,2]}`)}
	v1.Hash = HashCheckpoint(v1)
	quoted := CheckpointRecord{V: 2, Run: `a "b" <c> d`, Slot: 1, Step: 1, Seconds: 0.5,
		State: json.RawMessage(`{"s":"x\"y"}`), Delta: true, Prev: "p", Hash: "h"}
	for _, seed := range [][]byte{
		chain,
		encodeCheckpoints(f, []CheckpointRecord{v1}),
		bytes.ReplaceAll(chain, []byte("\n"), []byte("\r\n")),
		[]byte(`{"hash":"h","v":2,"slot":1,"step":1,"t":1,"state":{}}` + "\n"),
		[]byte(`{"v":2,"slot":1,"step":1,"t":1,"state":{},"extra":1,"hash":"h"}` + "\n"),
		append(bytes.TrimSuffix(lines[0], []byte("\n")), lines[1]...),
		bytes.Replace(chain, []byte(`"step":`), []byte("\n\"step\":"), 1),
		chain[:len(chain)-7],
		encodeCheckpoints(f, []CheckpointRecord{quoted}),
		[]byte(`{"v":2,"slot":1,"step":1,"t":1,"state":"a","prev":"b","hash":"c"}` + "\n"),
		[]byte(`{"v":2,"slot":1.5,"step":1,"t":1,"state":{},"hash":"h"}` + "\n"),
		[]byte(`{"v":2,"slot":1,"step":1,"t":1,"state":{} ,"hash":"h"}` + "\n\n"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceReadCheckpoints(bytes.NewReader(data))
		got, gotErr := ReadCheckpoints(bytes.NewReader(data))
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, want %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("records differ:\n got %+v\nwant %+v", got, want)
		}
	})
}

// BenchmarkWriteCheckpoints measures encoding a probe-state chain to
// checkpoints.jsonl.
func BenchmarkWriteCheckpoints(b *testing.B) {
	records := probeChain(b, 16, 10, `HEB-D|PR|24h|seed=42`)
	b.SetBytes(int64(len(encodeCheckpoints(b, records))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteCheckpointsJSONL(io.Discard, records); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadCheckpoints measures parsing the same chain back.
func BenchmarkReadCheckpoints(b *testing.B) {
	raw := encodeCheckpoints(b, probeChain(b, 16, 10, `HEB-D|PR|24h|seed=42`))
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCheckpoints(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}
