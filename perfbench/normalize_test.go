package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func committedDoc(t *testing.T) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "docs", "hebsim_all_output.txt"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := docsReference(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestNormalizeScaleReproducesDocs puts measured-looking wall-clock
// columns back into the committed output's scale rows, as a live hebsim
// run prints them, and checks the normaliser restores the file byte for
// byte.
func TestNormalizeScaleReproducesDocs(t *testing.T) {
	doc := committedDoc(t)
	var live strings.Builder
	scale, rows := false, 0
	for _, line := range strings.SplitAfter(doc, "\n") {
		text := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(text, "===== ") {
			scale = text == "===== scale ====="
		}
		f := strings.Fields(text)
		if scale && len(f) == 7 && isDigits(f[0]) {
			rows++
			fmt.Fprintf(&live, "%8s %10s %11s %8s %14s %12v %14.0f\n", f[0], f[1], f[2], f[3], f[4], "1.234s", 2345678.0+float64(rows))
			continue
		}
		live.WriteString(line)
	}
	if rows != 4 {
		t.Fatalf("found %d scale rows in the docs, want 4", rows)
	}
	if live.String() == doc {
		t.Fatal("injecting timings left the output unchanged")
	}
	if got := normalizeScale(live.String()); got != doc {
		t.Fatalf("normalised output differs from the committed docs")
	}
	if got := normalizeScale(doc); got != doc {
		t.Fatal("normalising an already normalised output changed it")
	}
}

func TestSplitSectionsFindsTheSuite(t *testing.T) {
	sections := splitSections(committedDoc(t))
	for _, name := range suite {
		if _, ok := sections[name]; !ok {
			t.Errorf("section %s missing", name)
		}
	}
	if len(sections) != len(suite) {
		t.Errorf("got %d sections, want %d", len(sections), len(suite))
	}
	if !strings.HasPrefix(sections["table1"], "workload ") {
		t.Errorf("table1 section starts %q", sections["table1"][:20])
	}
}

func TestDocsReferenceNeedsHeader(t *testing.T) {
	if _, err := docsReference("\n===== table1 =====\n"); err == nil {
		t.Fatal("accepted a file without the generator header")
	}
}
