package esd

import (
	"math"
	"math/bits"
	"reflect"
)

// Lockstep members. A pool built the usual way — every member from one
// config, all starting in the same state and given equal proportional
// shares — keeps its members bit-identical for the whole run. Stepping
// each of them in full repeats the same arithmetic on the same inputs, so
// the pool steps the first of a run of identical members and copies the
// result onto the rest.
//
// NewPool marks member i as a lockstep candidate (bit i of Pool.lock) when
// it has the same concrete type as member i-1 and a config equal to it bit
// for bit. At every call the pool then checks the candidates' mutable
// state against their predecessors', again bit for bit (math.Float64bits,
// so -0 and +0 differ), before anything is stepped. A member whose state
// matches takes its predecessor's capability, returned power and
// post-step state instead of being stepped itself. Any member that has
// diverged — a fault, a per-member SetSoC or Restore — falls back to the
// per-member path until its state matches again.
//
// The config-only constants and the step-length memos (Battery.flowSecs,
// Supercap.leakSecs, thermalState.alphaSecs) are functions of the config
// and the step length alone, so a skipped member's memos stay valid.

// maxLockstep bounds the pool size that gets lockstep candidates: one bit
// per member in Pool.lock.
const maxLockstep = 64

// lockCandidates returns the lockstep candidate mask for a pool's typed
// member views. Only pools made entirely of distinct batteries and
// supercaps qualify: a foreign Device or a member listed twice could step
// a member's state between the pool's state check and its turn, which the
// copy would then miss.
func lockCandidates(members []Device, bat []*Battery, sc []*Supercap) uint64 {
	n := len(members)
	if n > maxLockstep {
		return 0
	}
	for i := range members {
		if bat[i] == nil && sc[i] == nil {
			return 0
		}
		for j := range i {
			if members[j] == members[i] {
				return 0
			}
		}
	}
	var lock uint64
	for i := 1; i < n; i++ {
		switch {
		case bat[i] != nil && bat[i-1] != nil:
			if sameBits(reflect.ValueOf(&bat[i].cfg).Elem(), reflect.ValueOf(&bat[i-1].cfg).Elem()) {
				lock |= 1 << i
			}
		case sc[i] != nil && sc[i-1] != nil:
			if sameBits(reflect.ValueOf(&sc[i].cfg).Elem(), reflect.ValueOf(&sc[i-1].cfg).Elem()) {
				lock |= 1 << i
			}
		}
	}
	return lock
}

// sameBits reports whether two values of one config type are equal bit for
// bit. A field kind it does not know makes the configs count as different,
// which only costs the shortcut.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int64:
		return a.Int() == b.Int()
	default:
		return false
	}
}

// lockstep returns the members, among the lockstep candidates, whose
// mutable state equals their predecessor's right now.
func (p *Pool) lockstep() uint64 {
	var same uint64
	for m := p.lock; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		if b := p.bat[i]; b != nil {
			if b.sameState(p.bat[i-1]) {
				same |= 1 << i
			}
		} else if p.sc[i].sameState(p.sc[i-1]) {
			same |= 1 << i
		}
	}
	return same
}

// follow gives member i its predecessor's post-step state.
func (p *Pool) follow(i int) {
	if b := p.bat[i]; b != nil {
		b.copyState(p.bat[i-1])
		return
	}
	p.sc[i].copyState(p.sc[i-1])
}

// eq reports bit-for-bit equality of two floats.
func eq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (s *Stats) same(o *Stats) bool {
	return eq(float64(s.EnergyIn), float64(o.EnergyIn)) &&
		eq(float64(s.EnergyOut), float64(o.EnergyOut)) &&
		eq(float64(s.Loss), float64(o.Loss)) &&
		eq(s.ThroughputAh, o.ThroughputAh) &&
		eq(s.WeightedAh, o.WeightedAh) &&
		s.DischargeTime == o.DischargeTime
}

// sameState reports whether b's mutable state equals o's bit for bit: the
// wells, fault flag, cell temperatures, ledger and wear accumulators.
func (b *Battery) sameState(o *Battery) bool {
	return eq(b.q1, o.q1) && eq(b.q2, o.q2) && b.failed == o.failed &&
		eq(b.thermal.tempC, o.thermal.tempC) && eq(b.thermal.peakC, o.thermal.peakC) &&
		eq(b.wear.throughputAh, o.wear.throughputAh) &&
		eq(b.wear.weightedAh, o.wear.weightedAh) &&
		eq(b.wear.lastWeight, o.wear.lastWeight) &&
		eq(b.wear.peakWeight, o.wear.peakWeight) &&
		b.stats.same(&o.stats)
}

// copyState overwrites b's mutable state with o's (the thermal step memo
// rides along; it is valid for any battery of the same config).
func (b *Battery) copyState(o *Battery) {
	b.q1, b.q2 = o.q1, o.q2
	b.failed = o.failed
	b.thermal = o.thermal
	b.stats = o.stats
	b.wear = o.wear
}

// sameState reports whether s's mutable state equals o's bit for bit.
func (s *Supercap) sameState(o *Supercap) bool {
	return eq(s.v, o.v) && s.failed == o.failed && s.stats.same(&o.stats)
}

// copyState overwrites s's mutable state with o's.
func (s *Supercap) copyState(o *Supercap) {
	s.v = o.v
	s.failed = o.failed
	s.stats = o.stats
}
