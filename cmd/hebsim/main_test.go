package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"heb"
)

// normalizeScale blanks the scale section's wall-clock and steps/s
// columns, the only run-to-run variation in -exp all output, the way
// scripts/update_docs.sh does before it diffs the committed doc.
func normalizeScale(s string) string {
	var b strings.Builder
	scale := false
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.HasPrefix(line, "===== ") {
			scale = strings.TrimSuffix(line, "\n") == "===== scale ====="
		}
		f := strings.Fields(line)
		if scale && len(f) == 7 {
			if _, err := strconv.ParseUint(f[0], 10, 64); err == nil {
				line = fmt.Sprintf("%8s %10s %11s %8s %14s %12s %14s\n", f[0], f[1], f[2], f[3], f[4], "-", "-")
			}
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestRunAllMatchesSeparateExperiments checks that the suite's shared
// result memo changes nothing: -exp all at one and two workers prints
// exactly what running each experiment on its own, with no memo,
// prints.
func TestRunAllMatchesSeparateExperiments(t *testing.T) {
	const (
		duration = time.Hour
		load     = 60
	)
	p := heb.DefaultPrototype()
	var want bytes.Buffer
	for _, exp := range suite {
		fmt.Fprintf(&want, "\n===== %s =====\n", exp)
		if err := run(&want, exp, p, duration, load, 1); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	for _, workers := range []int{1, 2} {
		var got bytes.Buffer
		if err := runAll(&got, p, duration, load, workers); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		g := strings.Split(normalizeScale(got.String()), "\n")
		w := strings.Split(normalizeScale(want.String()), "\n")
		for i := 0; i < max(len(g), len(w)); i++ {
			var gl, wl string
			if i < len(g) {
				gl = g[i]
			}
			if i < len(w) {
				wl = w[i]
			}
			if gl != wl {
				t.Errorf("workers %d: -exp all output differs from the separate experiments at line %d:\n got %q\nwant %q", workers, i+1, gl, wl)
				break
			}
		}
	}
}
