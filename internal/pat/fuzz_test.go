package pat

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzLoad feeds Load arbitrary bytes. A bad table must come back as an
// error, never a panic; a table Load accepts must keep the invariants Add
// keeps and survive a Save/Load round trip unchanged.
func FuzzLoad(f *testing.F) {
	tb := MustNew(DefaultConfig())
	tb.Add(0.8, 0.2, 140, 0.7)
	tb.Add(0.2, 0.8, 40, 0.25)
	var saved bytes.Buffer
	if err := tb.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	const cfg = `"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":`
	for _, bad := range []string{
		`{` + cfg + `1},"entries":[{"Key":{"SCLevel":1},"Ratio":0.5},{"Key":{"SCLevel":2},"Ratio":0.5}]}`,
		`{` + cfg + `8},"entries":[{"Key":{"SCLevel":1},"Ratio":5}]}`,
		`{` + cfg + `8},"entries":[{"Key":{"SCLevel":1},"Ratio":-1}]}`,
		`{` + cfg + `8},"entries":[{"Key":{"SCLevel":1},"Ratio":0.5,"Hits":-3}]}`,
		`{` + cfg + `8},"entries":[{"Key":{"SCLevel":1},"Ratio":0.5},{"Key":{"SCLevel":1},"Ratio":0.2}]}`,
	} {
		if _, err := Load(bytes.NewBufferString(bad)); err == nil {
			f.Errorf("Load accepted %s", bad)
		}
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tb, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		entries := tb.Entries()
		if len(entries) > tb.cfg.MaxEntries {
			t.Fatalf("loaded %d entries over max %d", len(entries), tb.cfg.MaxEntries)
		}
		for _, e := range entries {
			if !(e.Ratio >= 0 && e.Ratio <= 1) || e.Hits < 0 || e.Updates < 0 {
				t.Fatalf("loaded entry breaks the table invariants: %+v", e)
			}
		}
		var buf bytes.Buffer
		if err := tb.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading a saved table: %v", err)
		}
		if !reflect.DeepEqual(back.Entries(), entries) || back.cfg != tb.cfg {
			t.Fatal("Save/Load round trip changed the table")
		}
	})
}
