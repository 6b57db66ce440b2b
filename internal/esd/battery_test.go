package esd

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"heb/internal/units"
)

func testBattery(t *testing.T) *Battery {
	t.Helper()
	b, err := NewBattery(DefaultBatteryConfig())
	if err != nil {
		t.Fatalf("NewBattery: %v", err)
	}
	return b
}

func TestBatteryConfigValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*BatteryConfig)
	}{
		{"zero voltage", func(c *BatteryConfig) { c.NominalVoltage = 0 }},
		{"zero capacity", func(c *BatteryConfig) { c.CapacityAh = 0 }},
		{"c too big", func(c *BatteryConfig) { c.C = 1 }},
		{"c negative", func(c *BatteryConfig) { c.C = -0.1 }},
		{"zero k", func(c *BatteryConfig) { c.K = 0 }},
		{"zero resistance", func(c *BatteryConfig) { c.InternalOhm = 0 }},
		{"inverted ocv", func(c *BatteryConfig) { c.VFullFrac, c.VEmptyFrac = 0.9, 1.1 }},
		{"cutoff above full", func(c *BatteryConfig) { c.CutoffFrac = 2 }},
		{"zero charge rate", func(c *BatteryConfig) { c.MaxChargeC = 0 }},
		{"zero discharge rate", func(c *BatteryConfig) { c.MaxDischargeC = 0 }},
		{"coulombic > 1", func(c *BatteryConfig) { c.CoulombicEff = 1.1 }},
		{"dod zero", func(c *BatteryConfig) { c.DoD = 0 }},
		{"negative leak", func(c *BatteryConfig) { c.SelfDischargePerHour = -1 }},
		{"bad lifetime", func(c *BatteryConfig) { c.Life.RatedCycles = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultBatteryConfig()
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate() accepted invalid config %+v", cfg)
			}
			if _, err := NewBattery(cfg); err == nil {
				t.Error("NewBattery accepted invalid config")
			}
		})
	}
	if err := DefaultBatteryConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestBatteryStartsFull(t *testing.T) {
	b := testBattery(t)
	if soc := b.SoC(); math.Abs(soc-1) > 1e-9 {
		t.Errorf("fresh battery SoC = %g, want 1", soc)
	}
	if b.Depleted() {
		t.Error("fresh battery reports Depleted")
	}
	wantV := b.cfg.VFullFrac * float64(b.cfg.NominalVoltage)
	if v := float64(b.Voltage()); math.Abs(v-wantV) > 1e-9 {
		t.Errorf("fresh battery OCV = %g, want %g", v, wantV)
	}
	// Usable capacity: DoD × 8 Ah × 24 V = 0.8·8·24 = 153.6 Wh.
	if got := b.Capacity().Wh(); math.Abs(got-153.6) > 1e-6 {
		t.Errorf("Capacity = %g Wh, want 153.6", got)
	}
}

func TestBatteryDischargeDeliversPower(t *testing.T) {
	b := testBattery(t)
	got := b.Discharge(70, time.Second) // one server's peak draw
	if got <= 0 || got > 70 {
		t.Fatalf("Discharge(70W) delivered %v, want (0, 70]", got)
	}
	if float64(got) < 69 {
		t.Errorf("fresh battery should deliver almost all of a 70W request, got %v", got)
	}
	if b.SoC() >= 1 {
		t.Error("SoC did not decrease after discharge")
	}
	st := b.Stats()
	if st.EnergyOut <= 0 {
		t.Error("EnergyOut not recorded")
	}
	if st.Loss <= 0 {
		t.Error("resistive loss not recorded")
	}
	if st.ThroughputAh <= 0 || st.WeightedAh < st.ThroughputAh {
		t.Errorf("throughput accounting wrong: raw %g weighted %g", st.ThroughputAh, st.WeightedAh)
	}
}

func TestBatteryDischargeZeroAndNegative(t *testing.T) {
	b := testBattery(t)
	if got := b.Discharge(0, time.Second); got != 0 {
		t.Errorf("Discharge(0) = %v, want 0", got)
	}
	if got := b.Discharge(-5, time.Second); got != 0 {
		t.Errorf("Discharge(-5) = %v, want 0", got)
	}
	if got := b.Discharge(100, 0); got != 0 {
		t.Errorf("Discharge over 0s = %v, want 0", got)
	}
}

func TestBatteryDrainsToDoDFloor(t *testing.T) {
	b := testBattery(t)
	dt := 10 * time.Second
	for i := 0; i < 100000 && !b.Depleted(); i++ {
		b.Discharge(40, dt)
	}
	if !b.Depleted() {
		t.Fatal("battery never depleted under sustained load")
	}
	if soc := b.SoC(); soc > 0.35 {
		t.Errorf("depleted battery SoC = %g; available well exhausted far above window", soc)
	}
	// Stored charge must respect the DoD floor.
	total := b.q1 + b.q2
	if total < b.qFloor()-1e-6 {
		t.Errorf("stored charge %g fell below DoD floor %g", total, b.qFloor())
	}
}

func TestBatteryPeukertEffect(t *testing.T) {
	// Higher constant power ⇒ less total energy delivered before the
	// available well empties (rate-capacity effect).
	delivered := func(p units.Power) units.Energy {
		b := testBattery(t)
		var total units.Energy
		dt := time.Second
		for i := 0; i < 8*3600; i++ {
			got := b.Discharge(p, dt)
			if got < p*0.999 {
				break // can no longer sustain the load
			}
			total += got.Over(dt)
		}
		return total
	}
	low := delivered(30)
	high := delivered(200)
	if low <= 0 || high <= 0 {
		t.Fatalf("no energy delivered: low %v high %v", low, high)
	}
	if high >= low {
		t.Errorf("Peukert violated: %v at 200W >= %v at 30W", high, low)
	}
	ratio := float64(high) / float64(low)
	if ratio > 0.9 {
		t.Errorf("rate-capacity effect too weak: high/low energy ratio %.3f, want < 0.9", ratio)
	}
}

func TestBatteryRecoveryEffect(t *testing.T) {
	// Discharge hard until the load can't be sustained, rest an hour,
	// then discharge again: the rest must recover usable energy.
	b := testBattery(t)
	dt := time.Second
	drain := func() units.Energy {
		var total units.Energy
		for i := 0; i < 4*3600; i++ {
			got := b.Discharge(200, dt)
			if got < 199 {
				break
			}
			total += got.Over(dt)
		}
		return total
	}
	first := drain()
	if first <= 0 {
		t.Fatal("first discharge delivered nothing")
	}
	immediately := drain()
	b.Rest(time.Hour)
	recovered := drain()
	if recovered <= immediately {
		t.Errorf("no recovery: %v after rest vs %v immediately", recovered, immediately)
	}
	gain := float64(recovered) / float64(first)
	if gain < 0.02 || gain > 0.60 {
		t.Errorf("recovered %.1f%% of first discharge; want a few to tens of percent", gain*100)
	}
}

func TestBatteryRecoveryNeverDecreasesAvailableCharge(t *testing.T) {
	f := func(loadW uint8, restMin uint8) bool {
		b := MustNewBattery(DefaultBatteryConfig())
		b.Discharge(units.Power(50+int(loadW)), 5*time.Minute)
		before := b.dischargePoint().avail
		b.Rest(time.Duration(restMin) * time.Minute)
		after := b.dischargePoint().avail
		// Self-discharge is tiny; recovery must dominate after any rest.
		return after >= before-1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBatteryVoltageSagUnderLoad(t *testing.T) {
	// Figure 5: large power demands cause sharp voltage drop.
	terminalV := func(p units.Power) float64 {
		b := testBattery(t)
		// Pre-drain so the available well is low.
		for i := 0; i < 40*60; i++ {
			b.Discharge(120, time.Second)
		}
		voc := float64(b.ocv())
		r := b.effectiveOhm()
		i := solveDischargeCurrent(float64(p), voc, r)
		return voc - i*r
	}
	vLight := terminalV(30)
	vHeavy := terminalV(250)
	if vHeavy >= vLight {
		t.Errorf("no sag: V(250W)=%g >= V(30W)=%g", vHeavy, vLight)
	}
	if vLight-vHeavy < 0.5 {
		t.Errorf("sag too small: %.3gV", vLight-vHeavy)
	}
}

func TestBatteryChargeRoundTrip(t *testing.T) {
	b := testBattery(t)
	dt := time.Second
	// Drain roughly half the usable window.
	var out units.Energy
	for b.SoC() > 0.5 {
		out += b.Discharge(60, dt).Over(dt)
	}
	// Recharge to full.
	var in units.Energy
	for i := 0; i < 48*3600 && b.SoC() < 0.999; i++ {
		in += b.Charge(60, dt).Over(dt)
	}
	if b.SoC() < 0.999 {
		t.Fatalf("battery did not recharge: SoC %g", b.SoC())
	}
	eff := float64(out) / float64(in)
	if eff < 0.60 || eff > 0.88 {
		t.Errorf("lead-acid round-trip efficiency %.3f outside [0.60, 0.88]", eff)
	}
}

func TestBatteryChargeCurrentCap(t *testing.T) {
	b := testBattery(t)
	// Drain half.
	for b.SoC() > 0.5 {
		b.Discharge(60, time.Second)
	}
	// Offer a huge power: accepted must respect MaxChargeC.
	accepted := b.Charge(10000, time.Second)
	iMax := b.cfg.MaxChargeC * b.cfg.CapacityAh
	vMax := b.cfg.VFullFrac * float64(b.cfg.NominalVoltage)
	ceiling := units.Power((vMax + iMax*b.cfg.InternalOhm) * iMax)
	if accepted > ceiling*1.01 {
		t.Errorf("accepted %v exceeds charge-current ceiling %v", accepted, ceiling)
	}
	if accepted <= 0 {
		t.Error("half-empty battery refused charge")
	}
}

func TestBatteryFullRefusesCharge(t *testing.T) {
	b := testBattery(t)
	if got := b.Charge(100, time.Second); got != 0 {
		t.Errorf("full battery accepted %v", got)
	}
}

func TestBatterySoCBoundsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b := MustNewBattery(DefaultBatteryConfig())
		for _, op := range ops {
			p := units.Power(op % 500)
			switch {
			case op%3 == 0:
				b.Discharge(p, time.Second)
			case op%3 == 1:
				b.Charge(p, time.Second)
			default:
				b.Rest(time.Duration(op%60) * time.Second)
			}
			soc := b.SoC()
			if soc < 0 || soc > 1 {
				return false
			}
			if b.q1 < -1e-9 || b.q2 < -1e-9 {
				return false
			}
			if b.q1+b.q2 > b.qMax()+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBatteryEnergyConservationProperty(t *testing.T) {
	// Energy in = energy out + loss + Δstored(chemical).
	f := func(ops []uint16) bool {
		cfg := DefaultBatteryConfig()
		cfg.SelfDischargePerHour = 0 // isolate the transfer ledger
		b := MustNewBattery(cfg)
		chemical := func() float64 {
			// Integrate stored charge at OCV; approximating chemical
			// energy as q·OCV(SoC) midpoint is fine for the tolerance
			// used below because OCV moves < 20%.
			return float64(units.Charge(b.q1 + b.q2).At(b.ocv()))
		}
		e0 := chemical()
		for _, op := range ops {
			p := units.Power(op % 400)
			if op%2 == 0 {
				b.Discharge(p, time.Second)
			} else {
				b.Charge(p, time.Second)
			}
		}
		st := b.Stats()
		lhs := float64(st.EnergyIn) + e0
		rhs := float64(st.EnergyOut) + float64(st.Loss) + chemical()
		tol := 0.05*math.Max(lhs, rhs) + 1
		return math.Abs(lhs-rhs) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBatteryMaxDischargePowerHonest(t *testing.T) {
	b := testBattery(t)
	est := b.MaxDischargePower()
	got := b.Discharge(est, time.Second)
	if float64(got) < 0.90*float64(est) {
		t.Errorf("MaxDischargePower promised %v but delivered %v", est, got)
	}
}

func TestBatteryResetRestoresFullState(t *testing.T) {
	b := testBattery(t)
	b.Discharge(100, time.Minute)
	b.Reset()
	if soc := b.SoC(); math.Abs(soc-1) > 1e-9 {
		t.Errorf("after Reset SoC = %g, want 1", soc)
	}
	if st := b.Stats(); st != (Stats{}) {
		t.Errorf("after Reset stats = %+v, want zero", st)
	}
}

func TestSolveDischargeCurrent(t *testing.T) {
	// (voc - i·r)·i = p must hold for the returned root.
	voc, r, p := 26.0, 0.2, 100.0
	i := solveDischargeCurrent(p, voc, r)
	if got := (voc - i*r) * i; math.Abs(got-p) > 1e-6 {
		t.Errorf("power at solved current = %g, want %g", got, p)
	}
	// Beyond the max transferable power the max-power current returns.
	iMax := solveDischargeCurrent(1e9, voc, r)
	if math.Abs(iMax-voc/(2*r)) > 1e-9 {
		t.Errorf("over-demand current = %g, want %g", iMax, voc/(2*r))
	}
}

func TestSolveChargeCurrent(t *testing.T) {
	voc, r, p := 24.0, 0.2, 150.0
	i := solveChargeCurrent(p, voc, r)
	if got := (voc + i*r) * i; math.Abs(got-p) > 1e-6 {
		t.Errorf("power at solved current = %g, want %g", got, p)
	}
}

func TestLiIonConfigValid(t *testing.T) {
	cfg := LiIonBatteryConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("li-ion config invalid: %v", err)
	}
	if _, err := NewBattery(cfg); err != nil {
		t.Fatalf("NewBattery(li-ion): %v", err)
	}
}

func TestLiIonBeatsLeadAcidRoundTrip(t *testing.T) {
	la := cycleEfficiency(t, MustNewBattery(DefaultBatteryConfig()), 100)
	li := cycleEfficiency(t, MustNewBattery(LiIonBatteryConfig()), 100)
	if li <= la {
		t.Errorf("li-ion round trip %.3f <= lead-acid %.3f", li, la)
	}
	if li < 0.90 {
		t.Errorf("li-ion round trip %.3f below 90%%", li)
	}
}

func TestLiIonChargesFaster(t *testing.T) {
	la := MustNewBattery(DefaultBatteryConfig())
	li := MustNewBattery(LiIonBatteryConfig())
	la.SetSoC(0.2)
	li.SetSoC(0.2)
	if li.MaxChargePower() <= la.MaxChargePower() {
		t.Errorf("li-ion charge power %v <= lead-acid %v",
			li.MaxChargePower(), la.MaxChargePower())
	}
}

func TestLiIonWeakerRateCapacityEffect(t *testing.T) {
	// KiBaM with c=0.85 strands far less charge at high current.
	delivered := func(cfg BatteryConfig, p units.Power) units.Energy {
		b := MustNewBattery(cfg)
		var total units.Energy
		for i := 0; i < 8*3600; i++ {
			got := b.Discharge(p, time.Second)
			if got < p*99/100 {
				break
			}
			total += got.Over(time.Second)
		}
		return total
	}
	laRatio := float64(delivered(DefaultBatteryConfig(), 180)) /
		float64(delivered(DefaultBatteryConfig(), 30))
	liRatio := float64(delivered(LiIonBatteryConfig(), 180)) /
		float64(delivered(LiIonBatteryConfig(), 30))
	if liRatio <= laRatio {
		t.Errorf("li-ion rate-capacity ratio %.3f not above lead-acid %.3f", liRatio, laRatio)
	}
}
