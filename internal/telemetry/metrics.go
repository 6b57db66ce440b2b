package telemetry

import (
	"sync"

	"heb/internal/obs"
	"heb/internal/power"
	"heb/internal/sim"
)

// Metrics bridges engine step snapshots into an obs.Registry so a live
// run can be scraped in Prometheus text format. It exports:
//
//	heb_engine_steps_total           counter, simulated ticks completed
//	heb_engine_mismatch_steps_total  counter, ticks with demand > supply
//	heb_power_relay_switches_total   counter per {position}
//	heb_power_demand_watts           gauge
//	heb_power_supply_watts           gauge
//	heb_esd_battery_soc              gauge, 0..1
//	heb_esd_supercap_soc             gauge, 0..1
//	heb_power_servers                gauge per {position}
//
// StepInfo carries the cumulative relay-movement counts, so the bridge
// keeps the last seen vector and feeds the counters deltas.
type Metrics struct {
	reg *obs.Registry

	steps, mismatch *obs.Counter
	switches        [power.NumSources]*obs.Counter
	demand, supply  *obs.Gauge
	baSoC, scSoC    *obs.Gauge
	servers         [power.NumSources]*obs.Gauge

	mu           sync.Mutex
	lastSwitches [power.NumSources]int64
}

// NewMetrics registers the engine metric families on reg (a nil reg gets
// a fresh private registry).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Metrics{reg: reg}
	m.steps = reg.Counter("heb_engine_steps_total", "Simulated engine ticks completed.")
	m.mismatch = reg.Counter("heb_engine_mismatch_steps_total", "Ticks where demand exceeded effective supply.")
	m.demand = reg.Gauge("heb_power_demand_watts", "Total server demand at the latest tick.")
	m.supply = reg.Gauge("heb_power_supply_watts", "Feed availability at the latest tick.")
	m.baSoC = reg.Gauge("heb_esd_battery_soc", "Battery pool state of charge (0..1).")
	m.scSoC = reg.Gauge("heb_esd_supercap_soc", "Super-capacitor pool state of charge (0..1).")
	for src := 0; src < power.NumSources; src++ {
		pos := obs.Label{Name: "position", Value: power.Source(src).String()}
		m.switches[src] = reg.Counter("heb_power_relay_switches_total",
			"Effective relay movements by destination position.", pos)
		m.servers[src] = reg.Gauge("heb_power_servers",
			"Servers on each relay position at the latest tick.", pos)
	}
	return m
}

// Registry returns the registry the bridge feeds (mount its Handler at
// /metrics).
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Observe folds one engine step into the metrics.
func (m *Metrics) Observe(s sim.StepInfo) {
	m.steps.Inc()
	if s.Mismatch {
		m.mismatch.Inc()
	}
	m.demand.Set(float64(s.Demand))
	m.supply.Set(float64(s.Supply))
	m.baSoC.Set(s.BatterySoC)
	m.scSoC.Set(s.SupercapSoC)
	m.servers[power.SourceUtility].Set(float64(s.OnUtility))
	m.servers[power.SourceBattery].Set(float64(s.OnBattery))
	m.servers[power.SourceSupercap].Set(float64(s.OnSupercap))
	m.servers[power.SourceOff].Set(float64(s.Off))

	m.mu.Lock()
	deltas := s.RelaySwitches
	for src := range deltas {
		deltas[src] -= m.lastSwitches[src]
	}
	m.lastSwitches = s.RelaySwitches
	m.mu.Unlock()
	for src, d := range deltas {
		if d > 0 {
			m.switches[src].Add(float64(d))
		}
	}
}

// Observer adapts the bridge to a sim.Observer instrument (RunOptions.Observer).
func (m *Metrics) Observer() func(sim.StepInfo) { return m.Observe }
