// Command hebwatch is the regression sentinel over recorded runs: it
// scores captures against statistical fleet baselines and flags the
// outliers. Populations are grouped per (scheme, workload) and located
// with median/MAD robust statistics (internal/obs/registry/baseline);
// a run whose metric sits WarnZ/CriticalZ robust z-scores from its
// cohort median is flagged, and a run whose own SLO alert verdict is
// unhealthy is escalated regardless of how unremarkable its metrics
// look.
//
// Subcommands:
//
//	hebwatch score [-run ID] [-window N] [-min-cohort N] root/
//	    Scan the capture tree under root and score every complete run
//	    against its cohort (or only the run named by -run). Prints one
//	    line per run and a summary; exits 1 when any run scores
//	    critical.
//
//	hebwatch diff [-window N] [-min-cohort N] rootA/ rootB/
//	    Compare two capture trees cohort-by-cohort: for every (scheme,
//	    workload, metric) present on both sides, B's median is scored
//	    against A's population. Exits 1 on any critical drift.
//
//	hebwatch bench [-update] bench.txt baseline.json [bench.txt baseline.json ...]
//	    The benchmark gate scripts/bench.sh runs. Each bench.txt is
//	    `go test -bench -benchmem` output, held to the BENCH_*.json
//	    baseline after it: every baseline row measured again, allocs/op
//	    exact (+/-8 on MultiSeed*/EngineProf*), ns/op at most 1.5x. All
//	    outputs together must then meet the absolute targets in
//	    bench.go. -update rewrites each baseline from its output
//	    instead. Exits 1 on any violation.
//
// Exit status: 0 clean, 1 critical findings, 2 on usage or read errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"heb/internal/obs"
	"heb/internal/obs/registry"
	"heb/internal/obs/registry/baseline"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var criticals int
	var err error
	switch os.Args[1] {
	case "score":
		fs := flag.NewFlagSet("score", flag.ExitOnError)
		window := fs.Int("window", 0, "limit each baseline population to its last N runs (0 = all)")
		minCohort := fs.Int("min-cohort", 0, fmt.Sprintf("override the minimum population size (default %d)", baseline.MinCohort))
		runID := fs.String("run", "", "score only this run ID")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			usage()
		}
		criticals, err = score(os.Stdout, fs.Arg(0), *runID, baseline.Window{MaxN: *window, MinN: *minCohort})
	case "diff":
		fs := flag.NewFlagSet("diff", flag.ExitOnError)
		window := fs.Int("window", 0, "limit each baseline population to its last N runs (0 = all)")
		minCohort := fs.Int("min-cohort", 0, fmt.Sprintf("override the minimum population size (default %d)", baseline.MinCohort))
		fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			usage()
		}
		criticals, err = diff(os.Stdout, fs.Arg(0), fs.Arg(1), baseline.Window{MaxN: *window, MinN: *minCohort})
	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		update := fs.Bool("update", false, "rewrite each baseline from its go test output")
		fs.Parse(os.Args[2:])
		if fs.NArg() == 0 || fs.NArg()%2 != 0 {
			usage()
		}
		criticals, err = bench(os.Stdout, fs.Args(), *update)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hebwatch:", err)
		os.Exit(2)
	}
	if criticals > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hebwatch score [-run ID] [-window N] [-min-cohort N] root/
       hebwatch diff [-window N] [-min-cohort N] rootA/ rootB/
       hebwatch bench [-update] bench.txt baseline.json [bench.txt baseline.json ...]`)
	os.Exit(2)
}

// score scans root and classifies every complete run (or just runID)
// against its cohort; it returns the number of critical verdicts.
func score(w io.Writer, root, runID string, win baseline.Window) (int, error) {
	r := registry.New(root)
	if err := r.Scan(); err != nil {
		return 0, err
	}
	var targets []registry.Run
	if runID != "" {
		run, ok := r.Find(runID)
		if !ok {
			return 0, fmt.Errorf("unknown run %q under %s", runID, root)
		}
		targets = []registry.Run{run}
	} else {
		seen := map[string]bool{}
		for _, run := range r.Runs(registry.Filter{Status: obs.StatusComplete}) {
			if run.Key == "" || seen[run.ID] {
				continue
			}
			seen[run.ID] = true
			targets = append(targets, run)
		}
	}
	counts := map[string]int{}
	for _, run := range targets {
		sc, err := r.Score(run.ID, win)
		if err != nil {
			return 0, err
		}
		counts[sc.Verdict]++
		line := fmt.Sprintf("%s %-8s %-4s seed=%-3d cohort=%-3d verdict=%s",
			sc.Run.ID, sc.Run.Scheme, sc.Run.Workload, sc.Run.Seed, sc.Cohort, sc.Verdict)
		if sc.Health != "" {
			line += " health=" + sc.Health
		}
		if m, ok := worstMetric(sc); ok {
			line += fmt.Sprintf("  worst=%s z=%+.2f (%.6g vs median %.6g)", m.Name, m.Z, m.Value, m.Median)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "hebwatch: %d runs scored: %d critical, %d warn, %d ok, %d unjudged\n",
		len(targets), counts[baseline.VerdictCritical], counts[baseline.VerdictWarn],
		counts[baseline.VerdictOK], counts[baseline.VerdictNoBaseline])
	return counts[baseline.VerdictCritical], nil
}

// worstMetric picks the scored metric with the largest |z| among those
// that had a baseline to judge against.
func worstMetric(sc registry.RunScore) (registry.MetricScore, bool) {
	best, found := registry.MetricScore{}, false
	for _, m := range sc.Metrics {
		if m.Verdict == baseline.VerdictNoBaseline {
			continue
		}
		if !found || math.Abs(m.Z) > math.Abs(best.Z) {
			best, found = m, true
		}
	}
	return best, found
}

// diff scores capture tree B's cohorts against tree A's; it returns the
// number of critical drifts.
func diff(w io.Writer, rootA, rootB string, win baseline.Window) (int, error) {
	va, err := cohortValues(rootA)
	if err != nil {
		return 0, err
	}
	vb, err := cohortValues(rootB)
	if err != nil {
		return 0, err
	}
	keys := make(map[string]bool, len(va)+len(vb))
	for k := range va {
		keys[k] = true
	}
	for k := range vb {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	criticals, warns := 0, 0
	for _, k := range sorted {
		a, okA := va[k]
		b, okB := vb[k]
		if !okA || !okB {
			side := rootA
			if okB {
				side = rootB
			}
			fmt.Fprintf(w, "%s: only in %s\n", k, side)
			continue
		}
		sc := baseline.ScoreValue(baseline.Median(b), a, win)
		switch sc.Verdict {
		case baseline.VerdictCritical:
			criticals++
		case baseline.VerdictWarn:
			warns++
		default:
			continue
		}
		fmt.Fprintf(w, "%s: median %.6g -> %.6g z=%+.2f %s\n", k, sc.Median, sc.Value, sc.Z, sc.Verdict)
	}
	fmt.Fprintf(w, "hebwatch: %d cohort metrics compared: %d critical, %d warn\n",
		len(sorted), criticals, warns)
	return criticals, nil
}

// cohortValues gathers every complete run's metrics under root, keyed
// "scheme|workload|metric", deduplicated by run ID in registry order so
// the populations are deterministic for any scan.
func cohortValues(root string) (map[string][]float64, error) {
	r := registry.New(root)
	if err := r.Scan(); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	seen := map[string]bool{}
	for _, run := range r.Runs(registry.Filter{Status: obs.StatusComplete}) {
		if run.Key == "" || seen[run.ID] {
			continue
		}
		seen[run.ID] = true
		names := make([]string, 0, len(run.Summary.Metrics))
		for name := range run.Summary.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := run.Scheme + "|" + run.Workload + "|" + name
			out[k] = append(out[k], run.Summary.Metrics[name])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no complete runs under %s", root)
	}
	return out, nil
}
