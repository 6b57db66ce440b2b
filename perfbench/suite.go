package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"heb"
	"heb/internal/runner"
	"heb/internal/sim"
	"heb/internal/solar"
	"heb/internal/units"
)

// suite is the experiment list hebsim's "-exp all" runs, in its order.
var suite = []string{
	"table1", "fig1", "fig1b", "fig3", "fig4", "fig5", "fig6",
	"fig12a", "fig12b", "fig12c", "fig12d",
	"fig13", "fig14", "fig15a", "fig15b", "fig15c",
	"deploy", "ablation", "multiseed", "capping", "scale", "summary",
}

// timedExperiments are the suite experiments whose host time the traced
// run reports as heb.exp.<name>.s: every experiment that simulates.
var timedExperiments = []string{
	"fig3", "fig12a", "fig12b", "fig12c", "fig12d", "fig13", "fig14",
	"fig15c", "deploy", "ablation", "multiseed", "capping", "scale", "summary",
}

const (
	suiteDuration = 24 * time.Hour
	suiteWorkers  = 2
	suiteLoadW    = 60 // hebsim's -load default, used by fig6
)

// suiteResult is what the traced paper-suite run learned in-process.
type suiteResult struct {
	// sections holds the text of every experiment the heb package
	// renders itself (heb.Write*), keyed by experiment name.
	sections map[string]string
	// expSeconds is the host time of each experiment call.
	expSeconds map[string]float64
	// cellMillis is the runner's per-cell wall time, as its cell
	// observer reported it.
	cellMillis []float64
	progress   runner.ProgressSnapshot
}

// runSuite calls the heb experiment functions with the arguments
// hebsim's runAll passes: the suite fans out on the runner at two
// workers, each experiment's inner sweeps run at one worker.
func runSuite(p heb.Prototype) (suiteResult, error) {
	prog := &runner.Progress{}
	p.Progress = prog
	var mu sync.Mutex
	res := suiteResult{sections: map[string]string{}, expSeconds: map[string]float64{}}
	prog.SetCellObserver(func(d time.Duration, _ bool) {
		mu.Lock()
		res.cellMillis = append(res.cellMillis, float64(d)/float64(time.Millisecond))
		mu.Unlock()
	})
	_, err := runner.MapProgress(context.Background(), len(suite), suiteWorkers, prog,
		func(_ context.Context, i int) (struct{}, error) {
			var buf bytes.Buffer
			start := time.Now()
			rendered, err := runExperiment(&buf, suite[i], p, suiteDuration, suiteLoadW, 1)
			elapsed := time.Since(start).Seconds()
			mu.Lock()
			res.expSeconds[suite[i]] = elapsed
			if rendered {
				res.sections[suite[i]] = buf.String()
			}
			mu.Unlock()
			if err != nil {
				return struct{}{}, fmt.Errorf("%s: %w", suite[i], err)
			}
			return struct{}{}, nil
		})
	prog.SetCellObserver(nil)
	res.progress = prog.Snapshot()
	return res, err
}

// runExperiment computes one experiment the way hebsim does. It renders
// into w, and reports rendered=true, only for experiments whose text the
// heb package writes (heb.Write*); hebsim formats the rest in its main
// package, so for those only the computation is repeated.
func runExperiment(w *bytes.Buffer, exp string, p heb.Prototype, duration time.Duration, load units.Power, workers int) (rendered bool, err error) {
	lowBudget := p.Budget * 85 / 100
	switch exp {
	case "table1":
		return true, heb.WriteTable1(w)
	case "fig1":
		r, err := heb.Figure1(p.Seed)
		if err != nil {
			return false, err
		}
		return true, heb.WriteFigure1(w, r)
	case "fig1b":
		_, err := solarFor(p.Seed).Generate(24*time.Hour, time.Minute)
		return false, err
	case "fig3":
		rows, err := heb.Figure3(p)
		if err != nil {
			return false, err
		}
		return true, heb.WriteFigure3(w, rows)
	case "fig4":
		return true, heb.WriteFigure4(w, heb.Figure4())
	case "fig5":
		rows, err := heb.Figure5(p)
		if err != nil {
			return false, err
		}
		return true, heb.WriteFigure5(w, rows)
	case "fig6":
		r, err := heb.Figure6(p, load)
		if err != nil {
			return false, err
		}
		return true, heb.WriteFigure6(w, r)
	case "fig12a", "fig12b", "fig12c":
		budget, metric, f := p.Budget, "EE", func(r sim.Result) float64 { return r.EnergyEfficiency }
		switch exp {
		case "fig12b":
			budget, metric, f = lowBudget, "downtime(s)", func(r sim.Result) float64 { return r.DowntimeServerSeconds }
		case "fig12c":
			metric, f = "battLife(y)", func(r sim.Result) float64 { return r.BatteryLifetimeYears }
		}
		results, err := heb.Figure12(p, heb.Figure12Options{Duration: duration, Budget: budget, Workers: workers})
		if err != nil {
			return false, err
		}
		return true, heb.WriteSchemeComparison(w, results, metric, f)
	case "fig12d":
		results, err := heb.Figure12d(p, solarFor(p.Seed), duration, nil)
		if err != nil {
			return false, err
		}
		return true, heb.WriteSchemeComparison(w, results, "REU", func(r sim.Result) float64 { return r.REU })
	case "fig13":
		pts, err := heb.Figure13(p, nil, duration)
		if err != nil {
			return false, err
		}
		return true, heb.WriteFigure13(w, pts)
	case "fig14":
		pts, err := heb.Figure14(p, nil, duration)
		if err != nil {
			return false, err
		}
		return true, heb.WriteFigure14(w, pts)
	case "fig15a":
		heb.Figure15a()
		return false, nil
	case "fig15b":
		heb.Figure15b()
		return false, nil
	case "fig15c":
		results, err := heb.Figure12(p, heb.Figure12Options{
			Duration: duration,
			Schemes:  []heb.SchemeID{heb.BaOnly, heb.BaFirst, heb.SCFirst, heb.HEBD},
			Workers:  workers,
		})
		if err != nil {
			return false, err
		}
		rows, err := heb.Figure15c(results, 8)
		if err != nil {
			return false, err
		}
		return true, heb.WriteFigure15c(w, rows)
	case "deploy":
		spec, err := heb.SpecNamed("PR")
		if err != nil {
			return false, err
		}
		results, err := heb.CompareDeployments(p, spec, 2, duration)
		if err != nil {
			return false, err
		}
		return true, heb.WriteDeployments(w, results)
	case "ablation":
		wl, err := heb.WorkloadNamed("PR")
		if err != nil {
			return false, err
		}
		_, err = heb.PredictionAblation(p, wl, duration)
		return false, err
	case "multiseed":
		results, err := heb.MultiSeedComparison(p, heb.MultiSeedOptions{
			Seeds: 5, Duration: duration, Workload: "PR", Workers: workers,
		})
		if err != nil {
			return false, err
		}
		return true, heb.WriteMultiSeed(w, results)
	case "capping":
		wl, err := heb.WorkloadNamed("PR")
		if err != nil {
			return false, err
		}
		_, err = heb.CompareWithDVFSCapping(p, wl, duration)
		return false, err
	case "scale":
		pts, err := heb.ScaleOutStudy(p, nil, duration)
		if err != nil {
			return false, err
		}
		return true, heb.WriteScaleOut(w, pts)
	case "summary":
		results, err := heb.Figure12(p, heb.Figure12Options{Duration: duration, Budget: lowBudget, Workers: workers})
		if err != nil {
			return false, err
		}
		reu, err := heb.Figure12d(p, solarFor(p.Seed), duration, nil)
		if err != nil {
			return false, err
		}
		for i := range results {
			for j := range reu {
				if reu[j].Scheme == results[i].Scheme {
					meanREU := reu[j].Mean(func(r sim.Result) float64 { return r.REU })
					for k, v := range results[i].Results {
						v.REU = meanREU
						results[i].Results[k] = v
					}
				}
			}
		}
		return true, heb.WriteImprovementSummary(w, results)
	default:
		return false, fmt.Errorf("unknown experiment %q", exp)
	}
}

// solarFor is the seeded default rooftop array hebsim uses.
func solarFor(seed int64) solar.Config {
	cfg := solar.DefaultConfig()
	cfg.Seed = seed
	return cfg
}
