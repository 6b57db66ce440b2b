package main

import (
	"fmt"
	"math"
	"time"

	"heb"
	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/forecast"
	"heb/internal/obs"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/sim"
	"heb/internal/units"
)

// recording holds the layer inputs a traced run saw: per-step demand and
// supply from RunOptions.Observer, kept every stride-th step up to
// maxSteps, and every control slot's decision record.
type recording struct {
	stride, maxSteps int
	n                int
	demand, supply   []float64
	decisions        []obs.DecisionRecord
}

func newRecording(stride, maxSteps int) *recording {
	return &recording{stride: stride, maxSteps: maxSteps}
}

// hook wires the recording into one run's options.
func (r *recording) hook(opts *heb.RunOptions) {
	opts.Observer = func(s sim.StepInfo) {
		if r.n%r.stride == 0 && len(r.demand) < r.maxSteps {
			r.demand = append(r.demand, float64(s.Demand))
			r.supply = append(r.supply, float64(s.Supply))
		}
		r.n++
	}
	opts.DecisionTrace = func(d obs.DecisionRecord) { r.decisions = append(r.decisions, d) }
}

// Replays repeat until they have measured at least replayBudget of host
// time, within [minPasses, maxPasses] passes.
const (
	replayBudget = 100 * time.Millisecond
	minPasses    = 3
	maxPasses    = 1000
)

var sink float64 // keeps measured calls from being optimized away

// microTimings replays a recording through fresh esd, pat and forecast
// components built the way a HEB-D run builds them, and reports the
// host nanoseconds per call of each layer's public operations.
func microTimings(p heb.Prototype, rec *recording, layers map[string]float64) error {
	overhead := timerOverhead()
	if err := esdTimings(p, rec, overhead, layers); err != nil {
		return err
	}
	if err := controllerTimings(p, rec, overhead, layers); err != nil {
		return err
	}
	if err := patTimings(p, rec, layers); err != nil {
		return err
	}
	forecastTimings(rec, layers)
	return nil
}

// timerOverhead is the mean cost in nanoseconds of one
// time.Now/time.Since pair, subtracted from per-call timings.
func timerOverhead() float64 {
	const n = 200000
	var acc time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		acc += time.Since(t0)
	}
	return float64(acc) / n
}

// perCall turns an accumulated time over n timed calls into ns per call
// net of the timer's own cost.
func perCall(acc time.Duration, n int, overhead float64) float64 {
	if n == 0 {
		return 0
	}
	ns := float64(acc)/float64(n) - overhead
	if ns < 0 {
		ns = 0
	}
	return ns
}

// esdTimings drives the recorded per-step mismatch (demand minus supply)
// into a battery pool (a deficit discharges it, a surplus charges it)
// and, scaled to one member, into a single battery string and a single
// supercap bank. Each pass starts from freshly built devices.
func esdTimings(p heb.Prototype, rec *recording, overhead float64, layers map[string]float64) error {
	if len(rec.demand) == 0 {
		return fmt.Errorf("replay: no steps recorded")
	}
	dt := p.Step
	var dis, chg, bat, sc []float64
	var spent time.Duration
	for pass := 0; pass < maxPasses && (pass < minPasses || spent < replayBudget); pass++ {
		pool, _, err := p.BuildPools(heb.HEBD)
		if err != nil {
			return err
		}
		devBat, devSC, err := p.BuildPools(heb.HEBD)
		if err != nil {
			return err
		}
		pool.SetSoC(p.InitialSoC)
		devBat.SetSoC(p.InitialSoC)
		devSC.SetSoC(p.InitialSoC)
		battery := devBat.Members()[0]
		supercap := devSC.Members()[0]
		batShare := float64(p.BatteryStrings)
		scShare := float64(p.SCBanks)
		var accDis, accChg, accBat, accSC time.Duration
		nDis, nChg := 0, 0
		passStart := time.Now()
		for i, d := range rec.demand {
			m := d - rec.supply[i]
			switch {
			case m > 0:
				t0 := time.Now()
				sink += float64(pool.Discharge(units.Power(m), dt))
				accDis += time.Since(t0)
				nDis++
				t0 = time.Now()
				sink += float64(battery.Discharge(units.Power(m/batShare), dt))
				accBat += time.Since(t0)
				t0 = time.Now()
				sink += float64(supercap.Discharge(units.Power(m/scShare), dt))
				accSC += time.Since(t0)
			case m < 0:
				t0 := time.Now()
				sink += float64(pool.Charge(units.Power(-m), dt))
				accChg += time.Since(t0)
				nChg++
				t0 = time.Now()
				sink += float64(battery.Charge(units.Power(-m/batShare), dt))
				accBat += time.Since(t0)
				t0 = time.Now()
				sink += float64(supercap.Charge(units.Power(-m/scShare), dt))
				accSC += time.Since(t0)
			default:
				pool.Rest(dt)
				t0 := time.Now()
				battery.Rest(dt)
				accBat += time.Since(t0)
				t0 = time.Now()
				supercap.Rest(dt)
				accSC += time.Since(t0)
			}
		}
		spent += time.Since(passStart)
		if nDis > 0 {
			dis = append(dis, perCall(accDis, nDis, overhead))
		}
		if nChg > 0 {
			chg = append(chg, perCall(accChg, nChg, overhead))
		}
		bat = append(bat, perCall(accBat, len(rec.demand), overhead))
		sc = append(sc, perCall(accSC, len(rec.demand), overhead))
	}
	layers["esd.discharge_ns"] = medianOrZero(dis)
	layers["esd.charge_ns"] = medianOrZero(chg)
	layers["esd.battery_step_ns"] = median(bat)
	layers["esd.supercap_step_ns"] = median(sc)
	return nil
}

// controllerTimings replays the recorded control slots through a fresh
// HEB-D controller: PlanSlot with the buffer availability the slot
// planned on, then FinishSlot with its measured outcome, timed together
// per slot. The controller's predictors see the same peaks as in the
// recorded run, so it plans the same slots the same way.
func controllerTimings(p heb.Prototype, rec *recording, overhead float64, layers map[string]float64) error {
	if len(rec.decisions) == 0 {
		return fmt.Errorf("replay: no control slots recorded")
	}
	battery, supercap, err := p.BuildPools(heb.HEBD)
	if err != nil {
		return err
	}
	scCap, baCap := supercap.Capacity(), battery.Capacity()
	var ns []float64
	var spent time.Duration
	for pass := 0; pass < maxPasses && (pass < minPasses || spent < replayBudget); pass++ {
		scheme, peak, valley, err := p.BuildScheme(heb.HEBD, scCap, baCap)
		if err != nil {
			return err
		}
		ctrl, err := core.NewController(core.Config{
			SmallPeakWatts: p.SmallPeakWatts, Budget: units.Power(rec.decisions[0].BudgetW),
			NumServers: p.NumServers, PeakPredictor: peak, ValleyPredictor: valley, NoiseSeed: p.Seed,
		}, scheme)
		if err != nil {
			return err
		}
		passStart := time.Now()
		for _, d := range rec.decisions {
			t0 := time.Now()
			_, dec := ctrl.PlanSlot(units.WattHours(d.SCAvailWh), scCap, units.WattHours(d.BAAvailWh), baCap)
			if d.Completed {
				ctrl.FinishSlot(core.SlotResult{
					ActualPeak: units.Power(d.ActualPeakW), ActualValley: units.Power(d.ActualValleyW),
					ActualPM: units.Power(d.ActualPMW), ActualOver: units.Power(d.ActualOverW),
					SCFracEnd: d.SCFracEnd, BAFracEnd: d.BAFracEnd, RatioUsed: d.RatioUsed,
				})
			}
			ns = append(ns, float64(time.Since(t0)))
			sink += dec.Ratio
		}
		spent += time.Since(passStart)
	}
	net := func(q float64) float64 { return math.Max(0, quantile(ns, q)-overhead) / 1e3 }
	layers["core.plan_us.p50"] = net(0.5)
	layers["core.plan_us.p95"] = net(0.95)
	return nil
}

// planInput is one large-peak slot HEB-D consulted its PAT for.
type planInput struct {
	scFrac, baFrac float64
	predictedOver  units.Power
	actualOver     units.Power
	ratioUsed      float64
	drift          pat.Drift
	completed      bool
}

// patTimings replays the recorded large-peak slots through a PAT seeded
// as HEB-D seeds it: Lookup with the planned inputs, Update with the
// observed outcome (Figure 10). Lookups run against the table one full
// update pass has taught, the state a running controller consults.
func patTimings(p heb.Prototype, rec *recording, layers map[string]float64) error {
	var inputs []planInput
	lookups, misses := 0, 0
	for _, d := range rec.decisions {
		lookups += d.PATLookups
		misses += d.PATMisses
		if d.SmallPeak {
			continue
		}
		inputs = append(inputs, planInput{
			scFrac: d.SCFrac, baFrac: d.BAFrac,
			predictedOver: units.Power(d.PredictedOverW),
			actualOver:    units.Power(d.ActualOverW),
			ratioUsed:     d.RatioUsed,
			drift:         pat.ClassifyDrift(d.SCFrac, d.BAFrac, d.SCFracEnd, d.BAFracEnd),
			completed:     d.Completed,
		})
	}
	layers["pat.lookups"] = float64(lookups)
	layers["pat.miss_ratio"] = 0
	if lookups > 0 {
		layers["pat.miss_ratio"] = float64(misses) / float64(lookups)
	}
	layers["pat.lookup_ns"], layers["pat.update_ns"] = 0, 0
	if len(inputs) == 0 {
		return nil
	}
	battery, supercap, err := p.BuildPools(heb.HEBD)
	if err != nil {
		return err
	}
	maxPM := units.Power(float64(p.NumServers)*float64(p.Server.PeakPower)) - p.Budget
	if maxPM < 0 {
		maxPM = 0
	}
	seeded := func() (*pat.Table, error) {
		t, err := pat.New(p.PATConfig)
		if err != nil {
			return nil, err
		}
		core.SeedPAT(t, supercap.Capacity(), battery.Capacity(), maxPM, core.DefaultBatteryDerate, p.ProfileNoise)
		return t, nil
	}
	update := func(t *pat.Table) {
		for _, in := range inputs {
			if in.completed {
				sink += t.Update(in.scFrac, in.baFrac, in.actualOver, in.ratioUsed, in.drift)
			}
		}
	}
	var updates []float64
	var spent time.Duration
	var table *pat.Table
	for pass := 0; pass < maxPasses && (pass < minPasses || spent < replayBudget); pass++ {
		if table, err = seeded(); err != nil {
			return err
		}
		t0 := time.Now()
		update(table)
		d := time.Since(t0)
		spent += d
		updates = append(updates, float64(d)/float64(len(inputs)))
	}
	var lookupNs []float64
	spent = 0
	for pass := 0; pass < maxPasses && (pass < minPasses || spent < replayBudget); pass++ {
		t0 := time.Now()
		for _, in := range inputs {
			r, _, _ := table.Lookup(in.scFrac, in.baFrac, in.predictedOver)
			sink += r
		}
		d := time.Since(t0)
		spent += d
		lookupNs = append(lookupNs, float64(d)/float64(len(inputs)))
	}
	layers["pat.lookup_ns"] = median(lookupNs)
	layers["pat.update_ns"] = median(updates)
	return nil
}

// forecastTimings feeds the recorded per-slot peaks through the
// seasonless Holt predictor the schemes use: one Observe and one Predict
// per slot, as FinishSlot and the next PlanSlot make them.
func forecastTimings(rec *recording, layers map[string]float64) {
	var peaks []float64
	for _, d := range rec.decisions {
		if d.Completed {
			peaks = append(peaks, d.ActualPeakW)
		}
	}
	layers["forecast.observe_predict_ns"] = 0
	if len(peaks) == 0 {
		return
	}
	cfg := forecast.DefaultHoltWintersConfig()
	cfg.SeasonLength = 0
	var per []float64
	var spent time.Duration
	for pass := 0; pass < maxPasses && (pass < minPasses || spent < replayBudget); pass++ {
		hw := forecast.MustNewHoltWinters(cfg)
		t0 := time.Now()
		for _, v := range peaks {
			hw.Observe(v)
			sink += hw.Predict()
		}
		d := time.Since(t0)
		spent += d
		per = append(per, float64(d)/float64(len(peaks)))
	}
	layers["forecast.observe_predict_ns"] = median(per)
}

// buildMicros times the construction a fresh run pays before its first
// step — device pools, scheme with its predictors and seeded PAT,
// controller, servers, feed and engine — and returns the mean over the
// six schemes in microseconds, the median of five such rounds.
func buildMicros(p heb.Prototype, wl heb.Workload, duration time.Duration) (float64, error) {
	tr, err := wl.Trace(p)
	if err != nil {
		return 0, err
	}
	var rounds []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for _, id := range heb.AllSchemes() {
			battery, supercap, err := p.BuildPools(id)
			if err != nil {
				return 0, err
			}
			var scCap units.Energy
			var scDev esd.Device
			charge := sim.ChargeBatteryOnly
			if supercap != nil {
				scCap, scDev, charge = supercap.Capacity(), supercap, sim.ChargeSupercapFirst
			}
			scheme, peak, valley, err := p.BuildScheme(id, scCap, battery.Capacity())
			if err != nil {
				return 0, err
			}
			ctrl, err := core.NewController(core.Config{
				SmallPeakWatts: p.SmallPeakWatts, Budget: p.Budget, NumServers: p.NumServers,
				PeakPredictor: peak, ValleyPredictor: valley, NoiseSeed: p.Seed,
			}, scheme)
			if err != nil {
				return 0, err
			}
			feed, err := power.NewUtilityFeed(p.Budget)
			if err != nil {
				return 0, err
			}
			if _, err := sim.New(sim.Config{
				Step: p.Step, Slot: p.Slot, Duration: duration, Servers: p.Servers(),
				Workload: tr, Battery: battery, Supercap: scDev, Feed: feed,
				Controller: ctrl, Topology: p.Topology, ChargePriority: charge,
			}); err != nil {
				return 0, err
			}
		}
		rounds = append(rounds, float64(time.Since(start))/float64(time.Microsecond)/float64(len(heb.AllSchemes())))
	}
	return median(rounds), nil
}

func medianOrZero(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
