package sim

import (
	"context"
	"math"
	"strconv"
	"time"

	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
	"heb/internal/power"
	"heb/internal/units"
)

// Point is a place in a run where the engine calls its instruments.
type Point uint8

const (
	// RunStart comes once, after any RestoreJSON, before the first plan or
	// step.
	RunStart Point = iota
	// BeforeFinish and AfterFinish bracket each slot finish: at every slot
	// boundary and once more at run end. A slot that saw no step is not
	// finished.
	BeforeFinish
	AfterFinish
	// BeforePlan and AfterPlan bracket each slot plan: at Step 0 of a
	// fresh run and at every slot boundary, right after its finish.
	BeforePlan
	AfterPlan
	// AfterStep comes after every executed step; only here is a stop
	// request honoured.
	AfterStep
	// RunEnd comes once, after the trailing slot finish.
	RunEnd
)

// Instrument observes a run through the engine's one instrumentation
// seam, Config.Instruments. Run calls every instrument synchronously from
// its own goroutine, in list order, at each Point. Returning true at
// AfterStep asks the engine to stop (the strict audit and alert modes):
// the rest of the list still sees that step, then the run ends aborted.
// Instruments must not change engine state: a run with any set of them
// produces the same Result as a bare run.
type Instrument interface {
	Observe(v *View, at Point) (stop bool)
}

// View is the engine as its instruments see it: where the run is, and a
// per-step view the whole list shares. The bus ledger, the device probe
// snapshots and the relay census are computed on first use and at most
// once per step.
type View struct {
	e                   *Engine
	now                 time.Duration
	step, slotSteps     int
	ending, mismatch    bool
	demand, supply      units.Power // the step's capped demand and feed supply
	tick                uint64      // advances at run start, each step and run end
	ledgerTick, relTick uint64      // tick the cached ledger and relays were taken at

	devices      []device
	probed       []probed
	devicesBuilt bool
	ledger       ledgerState
	inWh, outWh  float64
	relays       [power.NumSources]int
	relayTotal   int
}

// device is one probed storage device: a pool member named
// "<pool>/<index>", or a bare device named after its pool.
type device struct {
	Name string
	// Battery marks a battery-pool device. Charge-protection SLOs scope to
	// these: supercaps deep-cycle through their full window by design.
	Battery bool
}

type probed struct {
	dev  esd.Prober
	snap esd.ProbeSnapshot
	tick uint64
}

// ledgerState is the cumulative bus readings the ledger differences.
type ledgerState struct {
	utilityDrawn, meterUtility, served, devIn, devOut, convLoss units.Energy
}

// Now is the time of the step just executed, or of the slot boundary.
func (v *View) Now() time.Duration { return v.now }

// Step is the index of the step just executed, or the boundary's first.
func (v *View) Step() int { return v.step }

// Slot is the control-slot ordinal of Step.
func (v *View) Slot() int { return v.step / v.slotSteps }

// devs lists the probed storage devices, skipping any that cannot be
// probed or hold no usable window (the Null placeholder). The slice is
// shared: do not keep or modify it.
func (v *View) devs() []device {
	if !v.devicesBuilt {
		if cap(v.devices) == 0 {
			v.devices, v.probed = make([]device, 0, 8), make([]probed, 0, 8)
		}
		v.devices, v.probed = v.devices[:0], v.probed[:0]
		v.addDevices("battery", v.e.cfg.Battery)
		if v.e.cfg.Supercap != nil {
			v.addDevices("supercap", v.e.cfg.Supercap)
		}
		v.devicesBuilt = true
	}
	return v.devices
}

func (v *View) addDevices(pool string, dev esd.Device) {
	devs := []esd.Device{dev}
	p, pooled := dev.(*esd.Pool)
	if pooled {
		devs = p.Members()
	}
	for i, m := range devs {
		pr, ok := m.(esd.Prober)
		if !ok {
			continue
		}
		s := pr.ProbeSnapshot()
		if s.CapacityAh == 0 && s.CapacityWh == 0 {
			continue
		}
		name := pool
		if pooled {
			name += "/" + strconv.Itoa(i)
		}
		v.devices = append(v.devices, device{Name: name, Battery: pool == "battery"})
		v.probed = append(v.probed, probed{dev: pr, snap: s, tick: v.tick})
	}
}

// state is device i's probe snapshot at the current point, taken at most
// once per step. Do not modify it.
func (v *View) state(i int) *esd.ProbeSnapshot {
	p := &v.probed[i]
	if p.tick != v.tick {
		p.snap, p.tick = p.dev.ProbeSnapshot(), v.tick
	}
	return &p.snap
}

// busLedger is the step's bus-boundary energy ledger in watt-hours: deltas
// of cumulative readings since the previous step that asked (or since
// RunStart). The boundary sits between the sources and the sinks:
//
//	in  = Δutility drawn + Δdevice discharge (terminal side)
//	out = Δutility load credit + Δbuffer-served load + Δdevice charge
//	      + Δconverter losses
//
// Every engine path balances these exactly, so only float summation
// error separates them; a modeling bug that creates or destroys energy
// at the bus shows up as drift.
func (v *View) busLedger() (inWh, outWh float64) {
	if v.ledgerTick != v.tick {
		cur, prev := v.e.ledgerNow(), v.ledger
		in := (cur.utilityDrawn - prev.utilityDrawn) + (cur.devOut - prev.devOut)
		out := (cur.meterUtility - prev.meterUtility) + (cur.served - prev.served) +
			(cur.devIn - prev.devIn) + (cur.convLoss - prev.convLoss)
		v.ledger, v.inWh, v.outWh, v.ledgerTick = cur, in.Wh(), out.Wh(), v.tick
	}
	return v.inWh, v.outWh
}

// census is the relay census at the current point: servers per relay
// position, and their sum. The exclusivity invariant holds when the sum
// is the fabric's server count and the off count its shed accounting.
func (v *View) census() (counts [power.NumSources]int, total int) {
	if v.relTick != v.tick {
		v.relays, v.relayTotal, v.relTick = v.e.fabric.SourceCounts(), 0, v.tick
		for _, n := range v.relays {
			v.relayTotal += n
		}
	}
	return v.relays, v.relayTotal
}

func (e *Engine) ledgerNow() ledgerState {
	st := ledgerState{
		utilityDrawn: e.utilityDrawn,
		meterUtility: e.fabric.Meter().Utility,
		served:       e.servedBA + e.servedSC,
		convLoss:     e.dischargeConv.Loss() + e.utilityConv.Loss(),
	}
	ba := e.cfg.Battery.Stats()
	st.devIn, st.devOut = ba.EnergyIn, ba.EnergyOut
	if e.cfg.Supercap != nil {
		sc := e.cfg.Supercap.Stats()
		st.devIn += sc.EnergyIn
		st.devOut += sc.EnergyOut
	}
	return st
}

// notify calls every instrument at a point and reports whether any asked
// to stop.
func (e *Engine) notify(at Point) (stop bool) {
	for _, in := range e.cfg.Instruments {
		if in.Observe(&e.v, at) {
			stop = true
		}
	}
	return stop
}

// Observer is the instrument that hands fn the StepInfo of every step —
// the hook the telemetry monitor (prototype item 5, "system real-time
// running state monitoring") attaches to.
func Observer(fn func(StepInfo)) Instrument { return observer(fn) }

type observer func(StepInfo)

func (o observer) Observe(v *View, at Point) bool {
	if at != AfterStep {
		return false
	}
	counts, _ := v.census()
	e := v.e
	info := StepInfo{
		Now: v.now, Demand: v.demand, Supply: v.supply, Mismatch: v.mismatch,
		BatterySoC:    e.cfg.Battery.SoC(),
		OnUtility:     counts[power.SourceUtility],
		OnBattery:     counts[power.SourceBattery],
		OnSupercap:    counts[power.SourceSupercap],
		Off:           counts[power.SourceOff],
		RelaySwitches: e.fabric.SwitchCounts(),
	}
	if e.cfg.Supercap != nil {
		info.SupercapSoC = e.cfg.Supercap.SoC()
	}
	o(info)
	return false
}

// stepBatchSize is how many engine steps share one "steps" trace span —
// one span per step would swamp the trace with sub-microsecond slivers.
const stepBatchSize = 600

// Spans is the instrument that records the run's span hierarchy (run →
// slot plan/finish → step batches) on a trace track. A batch span opens
// as its first step completes; on the virtual clock that is the same
// timestamp as just before the step.
func Spans(t *obs.Track) Instrument { return &spans{t: t} }

type spans struct {
	t     *obs.Track
	batch int
}

func (s *spans) endBatch() {
	if s.batch > 0 {
		s.t.End()
		s.batch = 0
	}
}

func (s *spans) Observe(v *View, at Point) bool {
	switch at {
	case RunStart:
		s.t.Begin("run", "engine")
	case BeforeFinish:
		s.endBatch()
		s.t.Begin("finish", "control")
	case BeforePlan:
		s.endBatch()
		s.t.Begin("plan", "control")
	case AfterFinish:
		s.t.Advance(obs.VirtualFinishUS)
		s.t.End()
	case AfterPlan:
		s.t.Advance(obs.VirtualPlanUS)
		s.t.End()
	case AfterStep:
		if s.batch == 0 {
			s.t.Begin("steps", "engine")
		}
		s.t.Advance(obs.VirtualStepUS)
		if s.batch++; s.batch == stepBatchSize {
			s.t.End()
			s.batch = 0
		}
	case RunEnd:
		s.endBatch()
		s.t.End()
	}
	return false
}

// Probes is the instrument that samples every probed device (SoC,
// voltage, charge wells, Ah-throughput) into rec on every step whose
// index is a multiple of every (each step when every <= 1).
func Probes(rec *obs.ProbeRecorder, every int) Instrument {
	return &probes{rec: rec, every: max(every, 1)}
}

type probes struct {
	rec   *obs.ProbeRecorder
	every int
}

func (p *probes) Observe(v *View, at Point) bool {
	if at == AfterStep && v.step%p.every == 0 {
		sec := v.now.Seconds()
		for i, d := range v.devs() {
			s := v.state(i)
			p.rec.Record(d.Name, sec, s.SoC, s.VoltageV, s.AvailAh, s.BoundAh, s.ThroughputAh, s.NetOutWh())
		}
	}
	return false
}

// Audit is the energy-conservation instrument: a per-step bus ledger,
// device bound and relay-exclusivity checks, and per-device residuals
// over the run. A strict auditor stops the run at its first violation.
func Audit(a *obs.Auditor) Instrument { return audit{a} }

type audit struct{ a *obs.Auditor }

func (au audit) Observe(v *View, at Point) bool {
	switch at {
	case RunStart:
		for i, d := range v.devs() {
			s := v.state(i)
			au.a.StartDevice(d.Name, s.EnergyInWh, s.EnergyOutWh, s.LossWh, s.StoredWh)
		}
	case AfterStep:
		inWh, outWh := v.busLedger()
		au.a.RecordStep(v.now.Seconds(), inWh, outWh)
		au.bounds(v)
		au.relays(v)
		return au.a.Strict() && au.a.Violated()
	case RunEnd:
		for i, d := range v.devs() {
			s := v.state(i)
			au.a.EndDevice(d.Name, s.EnergyInWh, s.EnergyOutWh, s.LossWh, s.StoredWh)
		}
	}
	return false
}

// bounds checks every probed device against its physical envelope: state
// of charge inside [0,1], raw charge wells non-negative and within
// chemical capacity, open-circuit voltage inside its legal window.
func (au audit) bounds(v *View) {
	sec := v.now.Seconds()
	for i, d := range v.devs() {
		s := v.state(i)
		if s.SoC < 0 || s.SoC > 1 {
			au.a.Flag(obs.AuditEvent{Seconds: sec, Kind: obs.AuditSoCBound, Device: d.Name,
				Value: s.SoC, Limit: 1, Detail: "state of charge outside [0,1]"})
		}
		// Absolute slack for well roundoff: a few nano-amp-hours.
		const slackAh = 1e-9
		if s.AvailAh < -slackAh || s.BoundAh < -slackAh {
			au.a.Flag(obs.AuditEvent{Seconds: sec, Kind: obs.AuditChargeBound, Device: d.Name,
				Value: math.Min(s.AvailAh, s.BoundAh), Limit: 0, Detail: "negative charge well"})
		}
		if s.CapacityAh > 0 && s.AvailAh+s.BoundAh > s.CapacityAh*(1+1e-9)+slackAh {
			au.a.Flag(obs.AuditEvent{Seconds: sec, Kind: obs.AuditChargeBound, Device: d.Name,
				Value: s.AvailAh + s.BoundAh, Limit: s.CapacityAh, Detail: "stored charge above capacity"})
		}
		if s.VMaxV > s.VMinV {
			const slackV = 1e-9
			if s.VoltageV < s.VMinV-slackV || s.VoltageV > s.VMaxV+slackV {
				au.a.Flag(obs.AuditEvent{Seconds: sec, Kind: obs.AuditVoltageBound, Device: d.Name,
					Value: s.VoltageV, Limit: s.VMaxV, Detail: "open-circuit voltage outside window"})
			}
		}
	}
}

// relays checks the fabric's exclusivity invariant: every server's relay
// sits in exactly one position, so the per-source counts partition the
// fleet and the off count matches the fabric's shed accounting.
func (au audit) relays(v *View) {
	counts, total := v.census()
	if servers := v.e.fabric.NumServers(); total != servers {
		au.a.Flag(obs.AuditEvent{Seconds: v.now.Seconds(), Kind: obs.AuditRelayExclusivity,
			Value: float64(total), Limit: float64(servers),
			Detail: "relay positions do not partition the servers"})
	}
	if off := v.e.fabric.NumOffline(); counts[power.SourceOff] != off {
		au.a.Flag(obs.AuditEvent{Seconds: v.now.Seconds(), Kind: obs.AuditRelayExclusivity,
			Value: float64(counts[power.SourceOff]), Limit: float64(off),
			Detail: "off-relay count disagrees with shed accounting"})
	}
}

// Alerts is the online SLO instrument: each step it feeds the rule engine
// battery SoC, the mismatch clock, the bus ledger, the ramp rate and relay
// exclusivity, and at run end the battery wear rate. Fired alerts reach
// the event sink as EventAlert; a strict engine stops the run once a
// critical alert has fired.
func Alerts(a *alerts.Engine) Instrument { return alerting{a} }

type alerting struct{ a *alerts.Engine }

func (al alerting) Observe(v *View, at Point) bool {
	switch at {
	case AfterStep:
		sec := v.now.Seconds()
		stepSecs := v.e.cfg.Step.Seconds()
		for i, d := range v.devs() {
			if d.Battery {
				al.a.ObserveSoC(sec, d.Name, v.state(i).SoC)
			}
		}
		al.a.ObserveMismatch(sec, v.mismatch, stepSecs)
		inWh, outWh := v.busLedger()
		al.a.ObserveLedger(sec, inWh, outWh)
		if ds := v.e.demandSeries; len(ds) >= 2 {
			al.a.ObserveRamp(sec, math.Abs(ds[len(ds)-1]-ds[len(ds)-2])/stepSecs)
		}
		counts, total := v.census()
		f := v.e.fabric
		al.a.ObserveRelays(sec, total == f.NumServers() && counts[power.SourceOff] == f.NumOffline(), total, f.NumServers())
		al.emit(v)
		return al.a.Strict() && al.a.Violated()
	case RunEnd:
		e := v.e
		sec := float64(e.steps) * e.cfg.Step.Seconds()
		if days := sec / 86400; days > 0 {
			if wearer, ok := e.cfg.Battery.(interface{ Wear() (esd.WearReport, int) }); ok {
				if report, n := wearer.Wear(); n > 0 {
					al.a.ObserveWear(sec, "battery", report.EquivalentFullCycles/days)
				}
			} else if b, ok := e.cfg.Battery.(*esd.Battery); ok {
				al.a.ObserveWear(sec, "battery", b.Wear().EquivalentFullCycles/days)
			}
		}
		al.emit(v)
	}
	return false
}

// emit drains newly fired alerts into the event log as EventAlert; with
// no event sink the queue is still drained so it cannot grow.
func (al alerting) emit(v *View) {
	fired, sink := al.a.TakeFired(), v.e.cfg.Events
	if sink == nil {
		return
	}
	for _, a := range fired {
		detail := a.Kind.String() + "/" + a.Severity.String()
		if a.Device != "" {
			detail += " @" + a.Device
		}
		sink.Emit(obs.Event{
			Seconds: a.Seconds, Kind: obs.EventAlert, Server: -1,
			Watts: a.Value, Detail: detail,
		})
	}
}

// Prof is the profiling instrument for a cell-labeled pprof context (see
// internal/obs/prof): it labels each slot boundary's finish, plan and
// checkpoint "plan" and the hot loop "steps", switching only at slot
// points, never per step.
func Prof(ctx context.Context) Instrument { return profPhases{ctx} }

type profPhases struct{ ctx context.Context }

func (p profPhases) Observe(v *View, at Point) bool {
	switch {
	case at == BeforeFinish && !v.ending, at == BeforePlan && v.step == 0:
		prof.SetPhase(p.ctx, prof.PhasePlan)
	case at == AfterPlan, at == RunStart && v.step > 0:
		// A resumed run has no opening plan: it starts in the hot loop.
		prof.SetPhase(p.ctx, prof.PhaseSteps)
	}
	return false
}
