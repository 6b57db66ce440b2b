package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"runtime"
	"runtime/pprof"
	"testing"
)

// FuzzParse feeds the hand-written pprof decoder arbitrary bytes. A bad
// profile must come back as an error, never a panic, and a profile Parse
// accepts must roll up without panicking, as hebprof and obscheck do with
// whatever they read.
func FuzzParse(f *testing.F) {
	var sink [][]byte
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 512))
	}
	runtime.KeepAlive(sink)
	runtime.GC()
	for _, kind := range []string{"heap", "allocs"} {
		var gz bytes.Buffer
		if err := pprof.Lookup(kind).WriteTo(&gz, 0); err != nil {
			f.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(gz.Bytes()))
		if err != nil {
			f.Fatal(err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			f.Fatal(err)
		}
		for _, b := range [][]byte{gz.Bytes(), raw} {
			f.Add(b)
			for _, n := range []int{1, 2, 10, len(b) / 3, len(b) / 2, len(b) - 1} {
				f.Add(b[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, group := range []string{"", LabelPhase} {
			if r, err := NewRollup([]*Profile{p}, "", group); err == nil {
				r.Top(5)
			}
		}
	})
}
