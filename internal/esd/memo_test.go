package esd

import (
	"math"
	"testing"
	"time"

	"heb/internal/units"
)

// Bit-identity tests for the constants the device models derive once from
// their configuration: the supercap window floor and leak factor, the
// battery's unfaded capacity and its thermal fast path. Each must reproduce
// exactly the bits of the per-step formulas it replaced.

// memoStep is one device call: 'd' discharge, 'c' charge or 'r' rest.
type memoStep struct {
	op byte
	p  units.Power
	dt time.Duration
}

// memoSeq mixes all three calls with alternating step lengths, a zero step
// included, so a memo keyed on the step length is both hit and replaced.
var memoSeq = []memoStep{
	{'d', 70, time.Second},
	{'d', 150, 10 * time.Second},
	{'r', 0, 600 * time.Second},
	{'c', 60, time.Second},
	{'d', 90, time.Second},
	{'c', 200, 10 * time.Second},
	{'r', 0, 0},
	{'d', 150, 10 * time.Second},
	{'c', 40, 120 * time.Second},
	{'r', 0, time.Second},
	{'d', 0, time.Second},
	{'c', 50, 0},
}

// memoReps rounds of memoSeq take a battery through many heat-up and
// cool-down cycles, and a supercap from near empty up to its voltage cap.
const memoReps = 120

// runMemoSeq applies steps [from, to) of the repeated sequence to d and
// folds the bits of every returned power into the digest h.
func runMemoSeq(d Device, from, to int, h *uint64) {
	for k := from; k < to; k++ {
		st := memoSeq[k%len(memoSeq)]
		var p units.Power
		switch st.op {
		case 'd':
			p = d.Discharge(st.p, st.dt)
		case 'c':
			p = d.Charge(st.p, st.dt)
		default:
			d.Rest(st.dt)
		}
		*h = (*h ^ math.Float64bits(float64(p))) * 1099511628211 // FNV-1a prime
	}
}

// digestSeed is the FNV-1a offset basis.
const digestSeed uint64 = 14695981039346656037

// batteryBits lists the bits of a battery's wells, temperatures, ledger
// and wear report, followed by the step digest.
func batteryBits(b *Battery, h uint64) []uint64 {
	st, w := b.Stats(), b.Wear()
	fs := []float64{
		b.q1, b.q2, b.thermal.tempC, b.thermal.peakC,
		float64(st.EnergyIn), float64(st.EnergyOut), float64(st.Loss),
		st.ThroughputAh, st.WeightedAh,
		w.ThroughputAh, w.WeightedAh, w.LifeFractionUsed, w.PeakStressWeight,
	}
	out := make([]uint64, 0, len(fs)+2)
	for _, f := range fs {
		out = append(out, math.Float64bits(f))
	}
	return append(out, uint64(st.DischargeTime), h)
}

// supercapBits lists the bits of a supercap's voltage and ledger, followed
// by the step digest.
func supercapBits(s *Supercap, h uint64) []uint64 {
	st := s.Stats()
	return []uint64{
		math.Float64bits(s.v),
		math.Float64bits(float64(st.EnergyIn)),
		math.Float64bits(float64(st.EnergyOut)),
		math.Float64bits(float64(st.Loss)),
		uint64(st.DischargeTime),
		h,
	}
}

func thermalAgedBatteryConfig() BatteryConfig {
	cfg := DefaultBatteryConfig()
	cfg.Thermal = DefaultThermalConfig()
	cfg.Thermal.AmbientC = 38 // warm enough for the charge derate to engage
	cfg.FadeAtEOL = 0.2
	cfg.ResistanceGrowthAtEOL = 0.5
	return cfg
}

func newMemoBattery(cfg BatteryConfig) *Battery {
	b := MustNewBattery(cfg)
	b.PreAge(0.3)
	b.SetSoC(0.6)
	return b
}

func newMemoSupercap() *Supercap {
	s := MustNewSupercap(DefaultSupercapConfig())
	s.SetSoC(0.1)
	return s
}

// The golden bits were recorded from the direct per-step formulas, before
// any constant was hoisted out of the step path.
var (
	goldenThermalBattery = []uint64{
		0x40b4311230904d67, // q1
		0x40c2de741c19c891, // q2
		0x40452236b5dfd344, // tempC
		0x4045372cf3f51eae, // peakC
		0x411a0d6d087f9272, // EnergyIn
		0x4117250000000000, // EnergyOut
		0x4100945552d2f29c, // Loss
		0x40127fab012d3359, // Stats.ThroughputAh
		0x4073ab86a07fdb10, // Stats.WeightedAh
		0x40127fab012d3359, // Wear.ThroughputAh
		0x40b3fab86a07fdb1, // Wear.WeightedAh
		0x3fd4757941916616, // Wear.LifeFractionUsed
		0x4038009936b453c6, // Wear.PeakStressWeight
		0x00000266ac432000, // DischargeTime
		0x90afb3f3cecb97a8, // step digest
	}
	goldenDefaultBattery = []uint64{
		0x40b808fb2c948f5b, // q1
		0x40c64ade735b8158, // q2
		0x0000000000000000, // tempC
		0x0000000000000000, // peakC
		0x411cb6ad1c352d2a, // EnergyIn
		0x4117250000000000, // EnergyOut
		0x41013e9aaad0f6ec, // Loss
		0x401229206e2a8cfb, // Stats.ThroughputAh
		0x40571cc854b3bc95, // Stats.WeightedAh
		0x401229206e2a8cfb, // Wear.ThroughputAh
		0x40b31c732152cef5, // Wear.WeightedAh
		0x3fd391de575f092c, // Wear.LifeFractionUsed
		0x4035ea605294305e, // Wear.PeakStressWeight
		0x00000266ac432000, // DischargeTime
		0xbb996744f19058e8, // step digest
	}
	goldenSupercap = []uint64{
		0x403ffff8e46cdd43, // v
		0x411eadc1b1501370, // EnergyIn
		0x4117250000000000, // EnergyOut
		0x40b30a4c6a955590, // Loss
		0x00000266ac432000, // DischargeTime
		0xb6bfb239dfe9e27b, // step digest
	}
)

func checkBits(t *testing.T, name string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d: got %#x", name, len(got), len(want), got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s[%d] = %#016x, want %#016x", name, i, got[i], want[i])
		}
	}
}

func TestBatteryMatchesGoldenBits(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  BatteryConfig
		want []uint64
	}{
		{"thermal-aged", thermalAgedBatteryConfig(), goldenThermalBattery},
		{"default", DefaultBatteryConfig(), goldenDefaultBattery},
	} {
		b := newMemoBattery(c.cfg)
		h := digestSeed
		runMemoSeq(b, 0, memoReps*len(memoSeq), &h)
		checkBits(t, c.name, batteryBits(b, h), c.want)
	}
}

func TestSupercapMatchesGoldenBits(t *testing.T) {
	s := newMemoSupercap()
	h := digestSeed
	runMemoSeq(s, 0, memoReps*len(memoSeq), &h)
	checkBits(t, "supercap", supercapBits(s, h), goldenSupercap)
}

// refSupercapLeak is the self-discharge step as a direct formula: window
// floor, leak factor and stored energy recomputed from the configuration
// on every call. It returns the new voltage and loss ledger.
func refSupercapLeak(cfg SupercapConfig, v, loss, secs float64) (float64, float64) {
	if secs <= 0 || cfg.SelfDischargePerHour == 0 {
		return v, loss
	}
	vmax, vmin := float64(cfg.VMax), float64(cfg.VMin)
	vf := math.Sqrt(vmin*vmin + (1-cfg.DoD)*(vmax*vmax-vmin*vmin))
	stored := func(v float64) float64 {
		if v <= vf {
			return 0
		}
		return 0.5 * cfg.Capacitance * (v*v - vf*vf)
	}
	before := stored(v)
	v *= math.Sqrt(math.Pow(1-cfg.SelfDischargePerHour, secs/3600))
	if v < vmin {
		v = vmin
	}
	if after := stored(v); before > after {
		loss += before - after
	}
	return v, loss
}

func TestSupercapLeakMatchesDirectFormula(t *testing.T) {
	cfg := DefaultSupercapConfig()
	cfg.DoD = 0.75
	cfg.SelfDischargePerHour = 0.3 // fast enough to cross the window floor
	s := MustNewSupercap(cfg)
	v, loss := s.v, 0.0
	dts := []time.Duration{time.Second, 10 * time.Second, 600 * time.Second, time.Second, 0}
	for k := 0; k < 4000; k++ {
		dt := dts[k%len(dts)]
		s.Rest(dt)
		v, loss = refSupercapLeak(cfg, v, loss, dt.Seconds())
		if math.Float64bits(s.v) != math.Float64bits(v) ||
			math.Float64bits(float64(s.Stats().Loss)) != math.Float64bits(loss) {
			t.Fatalf("step %d (dt %v): v %v loss %v, direct formula v %v loss %v",
				k, dt, s.v, s.Stats().Loss, v, loss)
		}
	}
	if v != float64(cfg.VMin) {
		t.Errorf("sequence ended at %g V, want it to reach VMin %g", v, float64(cfg.VMin))
	}
}

// TestRestoreContinuesBitIdentically checkpoints a device with warm memos
// mid-sequence and restores it into a freshly built device, whose memos
// start cold: both must finish on the same bits as an uninterrupted run.
func TestRestoreContinuesBitIdentically(t *testing.T) {
	n := memoReps * len(memoSeq)
	for _, mid := range []int{1, 7, n / 2, n - 1} {
		{
			h := digestSeed
			whole := newMemoBattery(thermalAgedBatteryConfig())
			runMemoSeq(whole, 0, n, &h)

			h2 := digestSeed
			first := newMemoBattery(thermalAgedBatteryConfig())
			runMemoSeq(first, 0, mid, &h2)
			second := MustNewBattery(thermalAgedBatteryConfig())
			second.Restore(first.Checkpoint())
			runMemoSeq(second, mid, n, &h2)
			checkBits(t, "battery restored", batteryBits(second, h2), batteryBits(whole, h))
		}
		{
			h := digestSeed
			whole := newMemoSupercap()
			runMemoSeq(whole, 0, n, &h)

			h2 := digestSeed
			first := newMemoSupercap()
			runMemoSeq(first, 0, mid, &h2)
			second := MustNewSupercap(DefaultSupercapConfig())
			second.Restore(first.Checkpoint())
			runMemoSeq(second, mid, n, &h2)
			checkBits(t, "supercap restored", supercapBits(second, h2), supercapBits(whole, h))
		}
	}
}
