package main

import (
	"fmt"
	"strings"
)

// normalizeScale rewrites the two wall-clock columns of the scale
// section's data rows (seven fields, leading server count) to "-",
// keeping WriteScaleOut's column widths, exactly as
// scripts/update_docs.sh does before committing docs/hebsim_all_output.txt.
// Everything else hebsim prints is deterministic.
func normalizeScale(out string) string {
	var b strings.Builder
	scale := false
	for _, line := range strings.SplitAfter(out, "\n") {
		text := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(text, "===== ") {
			scale = text == "===== scale ====="
		}
		f := strings.Fields(text)
		if scale && len(f) == 7 && isDigits(f[0]) {
			fmt.Fprintf(&b, "%8s %10s %11s %8s %14s %12s %14s", f[0], f[1], f[2], f[3], f[4], "-", "-")
			if len(text) < len(line) {
				b.WriteByte('\n')
			}
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// docsReference strips the two generator header lines from the
// committed docs/hebsim_all_output.txt, leaving what hebsim -exp all
// prints at the default seed after normalizeScale.
func docsReference(doc string) (string, error) {
	for i := 0; i < 2; i++ {
		nl := strings.IndexByte(doc, '\n')
		if nl < 0 || !strings.HasPrefix(doc, "#") {
			return "", fmt.Errorf("docs reference: missing generator header line %d", i+1)
		}
		doc = doc[nl+1:]
	}
	return doc, nil
}

// splitSections cuts hebsim -exp all output into its experiments: each
// is printed as "\n===== name =====\n" followed by the experiment's text.
func splitSections(out string) map[string]string {
	sections := map[string]string{}
	for _, part := range strings.Split(out, "\n===== ")[1:] {
		header, body, ok := strings.Cut(part, " =====\n")
		if !ok {
			continue
		}
		sections[header] = body
	}
	return sections
}
