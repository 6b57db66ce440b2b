package esd

import (
	"math"
	"testing"
	"time"

	"heb/internal/units"
)

func TestLifetimeConfigValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*LifetimeConfig)
	}{
		{"zero cycles", func(c *LifetimeConfig) { c.RatedCycles = 0 }},
		{"dod too big", func(c *LifetimeConfig) { c.RatedDoD = 1.5 }},
		{"zero ref current", func(c *LifetimeConfig) { c.RefCurrentC = 0 }},
		{"negative exponent", func(c *LifetimeConfig) { c.CurrentExp = -1 }},
		{"negative soc stress", func(c *LifetimeConfig) { c.SoCStress = -1 }},
		{"zero calendar", func(c *LifetimeConfig) { c.CalendarYears = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultLifetimeConfig()
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate() accepted %+v", cfg)
			}
		})
	}
}

func TestRatedThroughput(t *testing.T) {
	cfg := DefaultLifetimeConfig()
	// 2500 cycles × 0.8 DoD × 8 Ah = 16000 Ah.
	if got := cfg.ratedThroughputAh(8); math.Abs(got-16000) > 1e-9 {
		t.Errorf("rated throughput = %g, want 16000", got)
	}
}

func TestWearWeightIncreasesWithCurrent(t *testing.T) {
	cfg := DefaultBatteryConfig()
	var w wearTracker
	w.recordDischarge(&cfg, 0.4, 1.0, 3600) // 0.05C reference current
	gentle := w.lastWeight
	w.recordDischarge(&cfg, 8, 1.0, 3600) // 1C
	harsh := w.lastWeight
	if harsh <= gentle {
		t.Errorf("high-current weight %g <= low-current %g", harsh, gentle)
	}
	if gentle < 1 {
		t.Errorf("weight below 1 at reference current: %g", gentle)
	}
}

func TestWearWeightIncreasesWithDepth(t *testing.T) {
	cfg := DefaultBatteryConfig()
	var w wearTracker
	w.recordDischarge(&cfg, 2, 0.9, 3600)
	shallow := w.lastWeight
	w.recordDischarge(&cfg, 2, 0.1, 3600)
	deep := w.lastWeight
	if deep <= shallow {
		t.Errorf("deep-discharge weight %g <= shallow %g", deep, shallow)
	}
}

func TestEstimateYearsScalesInverselyWithWear(t *testing.T) {
	cfg := DefaultLifetimeConfig()
	light := WearReport{WeightedAh: 10, RatedAh: 16000}
	heavy := WearReport{WeightedAh: 100, RatedAh: 16000}
	el := 24 * time.Hour
	lo := heavy.EstimateYears(cfg, el)
	hi := light.EstimateYears(cfg, el)
	if hi <= lo {
		t.Errorf("lighter wear gives shorter life: %g <= %g", hi, lo)
	}
	// 10× the wear rate ⇒ 1/10 the life (before the calendar cap).
	if lo > 0.2*hi {
		t.Errorf("scaling wrong: heavy %g vs light %g", lo, hi)
	}
}

func TestEstimateYearsCalendarCap(t *testing.T) {
	cfg := DefaultLifetimeConfig()
	idle := WearReport{WeightedAh: 0, RatedAh: 16000}
	if got := idle.EstimateYears(cfg, 24*time.Hour); got != cfg.CalendarYears {
		t.Errorf("idle battery lifetime %g, want calendar %g", got, cfg.CalendarYears)
	}
	tiny := WearReport{WeightedAh: 1e-6, RatedAh: 16000}
	if got := tiny.EstimateYears(cfg, 24*time.Hour); got != cfg.CalendarYears {
		t.Errorf("barely-used battery lifetime %g, want calendar cap %g", got, cfg.CalendarYears)
	}
	if got := idle.EstimateYears(cfg, 0); got != cfg.CalendarYears {
		t.Errorf("zero elapsed lifetime %g, want calendar %g", got, cfg.CalendarYears)
	}
}

func TestGentleUsageExtendsLifetimeEndToEnd(t *testing.T) {
	// The Figure 12(c) mechanism in miniature: the same energy drawn
	// gently (low current, shallow) must cost less life than drawn
	// harshly (high current, deep).
	drawEnergy := func(p units.Power) WearReport {
		b := MustNewBattery(DefaultBatteryConfig())
		var out units.Energy
		target := b.Capacity() / 2
		for i := 0; i < 48*3600 && out < target; i++ {
			got := b.Discharge(p, time.Second)
			if got <= 0 {
				break
			}
			out += got.Over(dtSecond)
		}
		return b.Wear()
	}
	gentle := drawEnergy(25)
	harsh := drawEnergy(250)
	if gentle.WeightedAh <= 0 || harsh.WeightedAh <= 0 {
		t.Fatal("no wear recorded")
	}
	// Normalize by raw throughput so the comparison is per-Ah wear.
	gw := gentle.WeightedAh / gentle.ThroughputAh
	hw := harsh.WeightedAh / harsh.ThroughputAh
	if hw <= gw {
		t.Errorf("per-Ah wear: harsh %g <= gentle %g", hw, gw)
	}
	if hw/gw < 1.5 {
		t.Errorf("wear separation too small for lifetime effects: %g", hw/gw)
	}
}

const dtSecond = time.Second
