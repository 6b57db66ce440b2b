package esd

import (
	"testing"
	"time"
)

func BenchmarkBatteryDischargeStep(b *testing.B) {
	bat := MustNewBattery(DefaultBatteryConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bat.Discharge(70, time.Second) < 35 {
			bat.SetSoC(1)
		}
	}
}

func BenchmarkBatteryChargeStep(b *testing.B) {
	bat := MustNewBattery(DefaultBatteryConfig())
	bat.SetSoC(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bat.Charge(60, time.Second) <= 0 {
			bat.SetSoC(0.2)
		}
	}
}

func BenchmarkSupercapDischargeStep(b *testing.B) {
	sc := MustNewSupercap(DefaultSupercapConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.Discharge(200, time.Second) < 100 {
			sc.SetSoC(1)
		}
	}
}

func BenchmarkHybridPoolDischarge(b *testing.B) {
	pool := MustNewPool("hybrid",
		MustNewBattery(DefaultBatteryConfig()),
		MustNewSupercap(DefaultSupercapConfig()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool.Discharge(150, time.Second) < 75 {
			pool.SetSoC(1)
		}
	}
}

func BenchmarkThermalBatteryDischargeStep(b *testing.B) {
	cfg := DefaultBatteryConfig()
	cfg.Thermal = DefaultThermalConfig()
	bat := MustNewBattery(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bat.Discharge(70, time.Second) < 35 {
			bat.SetSoC(1)
		}
	}
}

// The rest benchmarks step an idle device, where self-discharge is the
// whole cost; the periodic SetSoC keeps the supercap above its window
// floor so every step takes the same path.

func BenchmarkSupercapRestStep(b *testing.B) {
	sc := MustNewSupercap(DefaultSupercapConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3600 == 0 {
			sc.SetSoC(1)
		}
		sc.Rest(time.Second)
	}
}

func BenchmarkSupercapChargeStep(b *testing.B) {
	sc := MustNewSupercap(DefaultSupercapConfig())
	sc.SetSoC(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.Charge(200, time.Second) <= 0 {
			sc.SetSoC(0.2)
		}
	}
}

func BenchmarkBatteryRestStep(b *testing.B) {
	bat := MustNewBattery(DefaultBatteryConfig())
	bat.SetSoC(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bat.Rest(time.Second)
	}
}

// The pool benchmarks step two identical members behind one bus, the way
// the prototype builds its battery strings and SC banks: every member
// from one config, all starting in the same state. They are the
// Pool.transfer rows of the performance ladder.

func BenchmarkBatteryPoolDischarge(b *testing.B) {
	cfg := DefaultBatteryConfig()
	pool := MustNewPool("battery", MustNewBattery(cfg), MustNewBattery(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool.Discharge(140, time.Second) < 70 {
			pool.SetSoC(1)
		}
	}
}

func BenchmarkBatteryPoolCharge(b *testing.B) {
	cfg := DefaultBatteryConfig()
	pool := MustNewPool("battery", MustNewBattery(cfg), MustNewBattery(cfg))
	pool.SetSoC(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool.Charge(120, time.Second) <= 0 {
			pool.SetSoC(0.2)
		}
	}
}

func BenchmarkSupercapPoolDischarge(b *testing.B) {
	cfg := DefaultSupercapConfig()
	pool := MustNewPool("supercap", MustNewSupercap(cfg), MustNewSupercap(cfg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool.Discharge(400, time.Second) < 200 {
			pool.SetSoC(1)
		}
	}
}
