package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
)

func TestProbeRecorderPowerDerivative(t *testing.T) {
	r := NewProbeRecorder(0)
	r.Record("battery/0", 0, 0.5, 24, 1, 1, 0, 0)
	r.Record("battery/0", 60, 0.49, 23.9, 0.9, 1, 0.1, 2) // +2 Wh net out over 60 s
	r.Record("battery/0", 120, 0.5, 24, 1, 1, 0.1, 1)     // −1 Wh (charged) over 60 s

	s := r.DeviceSamples("battery/0")
	if len(s) != 3 {
		t.Fatalf("got %d samples, want 3", len(s))
	}
	if s[0].PowerW != 0 {
		t.Errorf("first sample power %g, want 0 (unprimed)", s[0].PowerW)
	}
	// 2 Wh over 60 s = 120 W discharging.
	if got := s[1].PowerW; got != 120 {
		t.Errorf("discharge power %g, want 120", got)
	}
	// −1 Wh over 60 s = −60 W (charging).
	if got := s[2].PowerW; got != -60 {
		t.Errorf("charge power %g, want -60", got)
	}
}

func TestProbeRingWrapKeepsNewest(t *testing.T) {
	r := NewProbeRecorder(4)
	for i := 0; i < 7; i++ {
		r.Record("sc/0", float64(i), 0.5, 12, 1, 0, 0, 0)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	s := r.DeviceSamples("sc/0")
	if len(s) != 4 {
		t.Fatalf("retained %d samples, want 4", len(s))
	}
	for i, want := range []float64{3, 4, 5, 6} {
		if s[i].Seconds != want {
			t.Errorf("sample %d at t=%g, want %g", i, s[i].Seconds, want)
		}
	}
}

func TestProbeDevicesPreserveRegistrationOrder(t *testing.T) {
	r := NewProbeRecorder(0)
	for _, d := range []string{"battery/1", "battery/0", "sc/0"} {
		r.Record(d, 0, 0.5, 12, 1, 0, 0, 0)
	}
	got := r.Devices()
	want := []string{"battery/1", "battery/0", "sc/0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("devices %v, want %v", got, want)
		}
	}
	// Samples interleave by device in the same registration order.
	all := r.Samples()
	if len(all) != 3 || all[0].Device != "battery/1" || all[2].Device != "sc/0" {
		t.Errorf("merged samples out of order: %+v", all)
	}
}

func TestProbesJSONLRoundTrip(t *testing.T) {
	r := NewProbeRecorder(0)
	r.Record("battery/0", 0, 0.55, 24.7, 0.49, 0.91, 0, 0)
	r.Record("battery/0", 60, 0.553, 24.71, 0.5, 0.91, 0.01, -0.14)
	in := r.Samples()
	in[0].Run = "test-run"

	var buf bytes.Buffer
	if err := WriteProbesJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadProbes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round-trip lost samples: %d -> %d", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("sample %d changed in round-trip:\n%+v\n%+v", i, in[i], out[i])
		}
	}
}

// checkStateJSON fails t unless AppendStateJSON gives exactly what
// json.Marshal(r.State()) gives: the same bytes, or the same error.
func checkStateJSON(t *testing.T, r *ProbeRecorder, when string) {
	t.Helper()
	want, wantErr := json.Marshal(r.State())
	got, gotErr := r.AppendStateJSON([]byte("prefix"))
	if wantErr != nil || gotErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, want %v", when, gotErr, wantErr)
		}
		return
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("%s:\n got %s\nwant prefix%s", when, got, want)
	}
}

// TestProbeAppendStateJSONMatchesMarshal pins the memoized appender to
// json.Marshal(State()) through ring wrap, repeated overwrites, Restore,
// run-labeled samples, escaped device names, -0 and non-finite values.
func TestProbeAppendStateJSONMatchesMarshal(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		checkStateJSON(t, NewProbeRecorder(3), "no devices")
	})
	t.Run("wrap and overwrite", func(t *testing.T) {
		r := NewProbeRecorder(3)
		for i := 0; i < 11; i++ {
			sec := float64(i * 60)
			r.Record("battery/0", sec, 0.5+float64(i)/100, 24, 1, 2, float64(i)/7, float64(i)*1.5)
			if i%2 == 0 {
				r.Record(`sc <0> & "x"`+"\u2028", sec, 0.9, 12, 0.3, 0, 0, -float64(i))
			}
			checkStateJSON(t, r, fmt.Sprintf("after record %d", i))
		}
	})
	t.Run("restore with run labels", func(t *testing.T) {
		r := NewProbeRecorder(3)
		for i := 0; i < 5; i++ {
			r.Record("battery/0", float64(i), 0.5, 24, 1, 2, 0, float64(i))
		}
		checkStateJSON(t, r, "before restore")
		st := r.State()
		for i := range st.Rings[0].Samples {
			st.Rings[0].Samples[i].Run = `HEB-D|PR "q" <r>`
		}
		if err := r.Restore(st); err != nil {
			t.Fatal(err)
		}
		checkStateJSON(t, r, "after restore")
		r.Record("battery/0", 5, 0.4, 23, 1, 2, 0, 9)
		checkStateJSON(t, r, "record after restore")
	})
	t.Run("negative zero", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		r := NewProbeRecorder(0)
		r.Record("battery/0", negZero, negZero, negZero, negZero, negZero, negZero, negZero)
		checkStateJSON(t, r, "-0 sample")
	})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		t.Run(fmt.Sprint(bad), func(t *testing.T) {
			r := NewProbeRecorder(0)
			r.Record("battery/0", 0, bad, 24, 1, 2, 0, 0)
			checkStateJSON(t, r, "non-finite sample")
			if _, err := r.AppendStateJSON(nil); err == nil {
				t.Fatal("non-finite sample encoded")
			}
			r = NewProbeRecorder(0)
			r.Record("battery/0", 0, 0.5, 24, 1, 2, 0, bad)
			checkStateJSON(t, r, "non-finite ring state")
		})
	}
}

// FuzzProbeStateJSON drives a small recorder through records, encodes,
// restores (labeling samples with run) and wraps, checking the appender
// against json.Marshal(State()) after every operation.
func FuzzProbeStateJSON(f *testing.F) {
	f.Add(uint8(3), "battery/0", "", []byte{0, 1, 0, 2, 0, 0, 3, 1, 2}, 0.25)
	f.Add(uint8(2), `sc <0> & "x"`+"\u2028", `HEB-D|PR "q"`, []byte{0, 0, 0, 0, 2, 0, 1, 0}, math.Copysign(0, -1))
	f.Add(uint8(1), "d", "r", []byte{0, 1, 2, 0}, math.NaN())
	f.Add(uint8(4), "d", "", []byte{0, 1}, math.Inf(-1))
	f.Fuzz(func(t *testing.T, ringCap uint8, device, run string, ops []byte, x float64) {
		r := NewProbeRecorder(int(ringCap%8) + 1)
		for i, op := range ops {
			v := float64(i)
			switch op % 4 {
			case 0:
				r.Record(device, v, x, v*x, -x, x/3, v, x*v+1)
			case 1:
				r.Record(device+"/1", v*60, 0.5, x, v, -v, x, v)
			case 2:
				st := r.State()
				for k := range st.Rings {
					for j := range st.Rings[k].Samples {
						st.Rings[k].Samples[j].Run = run
					}
				}
				if err := r.Restore(st); err != nil {
					t.Fatal(err)
				}
			}
			checkStateJSON(t, r, fmt.Sprintf("op %d", i))
		}
	})
}

// BenchmarkProbeStateJSON measures encoding a day's probe rings at every
// checkpoint: each iteration records one slot's samples (10 per device)
// and encodes the recorder's full state, as the flight recorder does.
func BenchmarkProbeStateJSON(b *testing.B) {
	r := NewProbeRecorder(0)
	sec := 0.0
	slot := func() {
		for j := 0; j < 10; j++ {
			sec += 60
			x := sec / 3600
			r.Record("battery/0", sec, 0.5+0.4*math.Sin(x), 24+math.Cos(x), 40*math.Sin(x/3), 60+x, x*1.7, x*x/7)
			r.Record("supercap/0", sec, 0.9-0.1*math.Cos(x), 12.5+math.Sin(x), 1.25*x, 0, x/3, -x/11)
		}
	}
	for i := 0; i < 144; i++ {
		slot()
	}
	out, err := r.AppendStateJSON(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(out)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot()
		if out, err = r.AppendStateJSON(out[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
