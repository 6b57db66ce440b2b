package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// FuzzReadCSV feeds ReadCSV arbitrary bytes with a valid 10 s fallback.
// A bad file must come back as an error, never a panic, and never as the
// missing-fallback error; a trace ReadCSV accepts must be well formed.
func FuzzReadCSV(f *testing.F) {
	tr := MustNew("rt", 2*time.Second, 3, 4)
	for i := range tr.Samples {
		for j := range tr.Samples[i] {
			tr.Samples[i][j] = float64(i*3+j) / 20
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("t_seconds,server0\n0,0.5\n"))
	for _, bad := range []string{
		"t_seconds,server0\n0,0.5\n1e-10,0.5\n",
		"t_seconds,server0\n0,0.5\n1e300,0.5\n",
	} {
		_, err := ReadCSV(strings.NewReader(bad), "x", 10*time.Second)
		if err == nil || !strings.Contains(err.Error(), "time column") {
			f.Errorf("ReadCSV(%q) = %v, want an error naming the time column", bad, err)
		}
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCSV(bytes.NewReader(data), "x", 10*time.Second)
		if err != nil {
			if strings.Contains(err.Error(), "no valid fallback") {
				t.Fatalf("blamed the fallback although 10s was given: %v", err)
			}
			return
		}
		if got.Step <= 0 {
			t.Fatalf("accepted trace has step %v", got.Step)
		}
		for i, row := range got.Samples {
			if len(row) != got.Servers() {
				t.Fatalf("row %d has %d samples, want %d", i, len(row), got.Servers())
			}
		}
	})
}
