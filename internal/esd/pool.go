package esd

import (
	"fmt"
	"time"

	"heb/internal/units"
)

// Pool aggregates parallel devices (battery strings or super-capacitor
// banks behind a shared DC bus) into one Device. Load and charge power is
// split across members in proportion to their present capability, which is
// how paralleled strings share current in practice: a sagging string
// naturally carries less.
//
// The concrete batteries and supercaps are resolved once at construction
// into index-aligned typed slices, so the per-step hot path (capability
// scan, proportional split, dispatch) makes direct calls instead of
// interface dispatch, and the capability scratch is pool-owned rather than
// allocated per call. Member order is preserved everywhere, so the
// floating-point summation order — and therefore every simulation result —
// is bit-identical to the naive per-device loop. Members that are
// bit-identical to their predecessor are stepped once for the run of them
// (lockstep.go).
type Pool struct {
	name    string
	members []Device

	// Typed member views, index-aligned with members: bat[i]/sc[i] is
	// non-nil when members[i] is of that concrete type. A foreign Device
	// implementation leaves both nil and falls back to interface dispatch.
	bat []*Battery
	sc  []*Supercap

	// caps is the reusable capability scratch for transfer and
	// TerminalVoltage; it lives on the pool so the per-step hot path never
	// allocates. The pool is single-goroutine (like its members), so one
	// scratch suffices.
	caps []units.Power

	// lock marks the lockstep candidates: bit i is set when member i has
	// member i-1's concrete type and config (lockstep.go).
	lock uint64
}

var _ Device = (*Pool)(nil)

// NewPool builds a pool from one or more member devices.
func NewPool(name string, members ...Device) (*Pool, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("esd: pool %q needs at least one member", name)
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("esd: pool %q member %d is nil", name, i)
		}
	}
	p := &Pool{
		name:    name,
		members: members,
		bat:     make([]*Battery, len(members)),
		sc:      make([]*Supercap, len(members)),
		caps:    make([]units.Power, len(members)),
	}
	for i, m := range members {
		switch d := m.(type) {
		case *Battery:
			p.bat[i] = d
		case *Supercap:
			p.sc[i] = d
		}
	}
	p.lock = lockCandidates(p.members, p.bat, p.sc)
	return p, nil
}

// MustNewPool is NewPool for known-good member lists.
func MustNewPool(name string, members ...Device) *Pool {
	p, err := NewPool(name, members...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the pool's name (e.g. "battery", "supercap").
func (p *Pool) Name() string { return p.name }

// Members returns the member devices (shared, not copied).
func (p *Pool) Members() []Device { return p.members }

// Size returns the member count.
func (p *Pool) Size() int { return len(p.members) }

// The member* helpers devirtualize the hot-path Device calls: the concrete
// type was resolved at construction, so the common case is a direct method
// call the compiler can see through. Member order — and so float summation
// order — matches the members slice exactly.

func (p *Pool) memberCapacity(i int) units.Energy {
	if b := p.bat[i]; b != nil {
		return b.Capacity()
	}
	if s := p.sc[i]; s != nil {
		return s.Capacity()
	}
	return p.members[i].Capacity()
}

func (p *Pool) memberSoC(i int) float64 {
	if b := p.bat[i]; b != nil {
		return b.SoC()
	}
	if s := p.sc[i]; s != nil {
		return s.SoC()
	}
	return p.members[i].SoC()
}

func (p *Pool) memberStored(i int) units.Energy {
	if b := p.bat[i]; b != nil {
		return b.Stored()
	}
	if s := p.sc[i]; s != nil {
		return s.Stored()
	}
	return p.members[i].Stored()
}

func (p *Pool) memberVoltage(i int) units.Voltage {
	if b := p.bat[i]; b != nil {
		return b.Voltage()
	}
	if s := p.sc[i]; s != nil {
		return s.Voltage()
	}
	return p.members[i].Voltage()
}

func (p *Pool) memberMaxDischarge(i int) units.Power {
	if b := p.bat[i]; b != nil {
		return b.MaxDischargePower()
	}
	if s := p.sc[i]; s != nil {
		return s.MaxDischargePower()
	}
	return p.members[i].MaxDischargePower()
}

func (p *Pool) memberMaxCharge(i int) units.Power {
	if b := p.bat[i]; b != nil {
		return b.MaxChargePower()
	}
	if s := p.sc[i]; s != nil {
		return s.MaxChargePower()
	}
	return p.members[i].MaxChargePower()
}

func (p *Pool) memberDepleted(i int) bool {
	if b := p.bat[i]; b != nil {
		return b.Depleted()
	}
	if s := p.sc[i]; s != nil {
		return s.Depleted()
	}
	return p.members[i].Depleted()
}

func (p *Pool) memberRest(i int, dt time.Duration) {
	if b := p.bat[i]; b != nil {
		b.Rest(dt)
		return
	}
	if s := p.sc[i]; s != nil {
		s.Rest(dt)
		return
	}
	p.members[i].Rest(dt)
}

func (p *Pool) memberDischarge(i int, req units.Power, dt time.Duration) units.Power {
	if b := p.bat[i]; b != nil {
		return b.Discharge(req, dt)
	}
	if s := p.sc[i]; s != nil {
		return s.Discharge(req, dt)
	}
	return p.members[i].Discharge(req, dt)
}

func (p *Pool) memberCharge(i int, offered units.Power, dt time.Duration) units.Power {
	if b := p.bat[i]; b != nil {
		return b.Charge(offered, dt)
	}
	if s := p.sc[i]; s != nil {
		return s.Charge(offered, dt)
	}
	return p.members[i].Charge(offered, dt)
}

// memberTerminalVoltage returns the loaded terminal voltage and whether the
// member models one.
func (p *Pool) memberTerminalVoltage(i int, load units.Power) (units.Voltage, bool) {
	if b := p.bat[i]; b != nil {
		return b.TerminalVoltage(load), true
	}
	if s := p.sc[i]; s != nil {
		return s.TerminalVoltage(load), true
	}
	tv, ok := p.members[i].(interface {
		TerminalVoltage(units.Power) units.Voltage
	})
	if !ok {
		return 0, false
	}
	return tv.TerminalVoltage(load), true
}

// The read paths and transfer below share one idiom: a member whose bit
// is set in the lockstep mask reuses its predecessor's value (still held
// in the loop variable) instead of evaluating its own, which is the same
// value bit for bit.

// SoC is the capacity-weighted mean state of charge.
func (p *Pool) SoC() float64 {
	same := p.lockstep()
	var num, den, c, soc float64
	for i := range p.members {
		if same&(1<<i) == 0 {
			c = float64(p.memberCapacity(i))
			soc = p.memberSoC(i)
		}
		num += soc * c
		den += c
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Stored sums members' usable stored energy.
func (p *Pool) Stored() units.Energy {
	same := p.lockstep()
	var e, m units.Energy
	for i := range p.members {
		if same&(1<<i) == 0 {
			m = p.memberStored(i)
		}
		e += m
	}
	return e
}

// Capacity sums members' usable capacity.
func (p *Pool) Capacity() units.Energy {
	var e units.Energy
	for i := range p.members {
		e += p.memberCapacity(i)
	}
	return e
}

// Voltage reports the highest member voltage (the bus follows the
// strongest string through its ORing diode).
func (p *Pool) Voltage() units.Voltage {
	var v units.Voltage
	for i := range p.members {
		if mv := p.memberVoltage(i); mv > v {
			v = mv
		}
	}
	return v
}

// TerminalVoltage estimates the loaded bus voltage while delivering load
// watts: each member carries a share proportional to its capability, and
// the bus sits at the capability-weighted mean of member terminals.
func (p *Pool) TerminalVoltage(load units.Power) units.Voltage {
	caps := p.caps
	same := p.lockstep()
	var capSum units.Power
	for i := range p.members {
		if same&(1<<i) != 0 {
			caps[i] = caps[i-1]
		} else {
			caps[i] = p.memberMaxDischarge(i)
		}
		capSum += caps[i]
	}
	if capSum <= 0 {
		return p.Voltage()
	}
	if load > capSum {
		load = capSum
	}
	var num, den float64
	for i := range p.members {
		share := units.Power(float64(load) * float64(caps[i]) / float64(capSum))
		v, ok := p.memberTerminalVoltage(i, share)
		if !ok {
			continue
		}
		w := float64(caps[i])
		num += float64(v) * w
		den += w
	}
	if den == 0 {
		return p.Voltage()
	}
	return units.Voltage(num / den)
}

// MaxDischargePower sums member discharge capability.
func (p *Pool) MaxDischargePower() units.Power {
	same := p.lockstep()
	var pw, m units.Power
	for i := range p.members {
		if same&(1<<i) == 0 {
			m = p.memberMaxDischarge(i)
		}
		pw += m
	}
	return pw
}

// MaxChargePower sums member charge acceptance.
func (p *Pool) MaxChargePower() units.Power {
	same := p.lockstep()
	var pw, m units.Power
	for i := range p.members {
		if same&(1<<i) == 0 {
			m = p.memberMaxCharge(i)
		}
		pw += m
	}
	return pw
}

// Depleted reports whether every member is depleted. A lockstep member
// is depleted exactly when its predecessor is, which the loop has already
// found to be so.
func (p *Pool) Depleted() bool {
	same := p.lockstep()
	for i := range p.members {
		if same&(1<<i) == 0 && !p.memberDepleted(i) {
			return false
		}
	}
	return true
}

// Discharge splits req across members in proportion to their capability
// and returns total delivered power.
func (p *Pool) Discharge(req units.Power, dt time.Duration) units.Power {
	return p.transfer(req, dt, true)
}

// Charge splits offered watts across members in proportion to their
// acceptance and returns total input power drawn.
func (p *Pool) Charge(offered units.Power, dt time.Duration) units.Power {
	return p.transfer(offered, dt, false)
}

// transfer implements the proportional split shared by Discharge and
// Charge. Each member's share is proportional to its instantaneous
// capability, so no member is asked for more than it can serve and every
// member is dispatched exactly once per step (keeping recovery and leakage
// time in sync across the pool). It is the pool's hot path: one capability
// pass and one dispatch pass over the typed member slices, zero
// allocations. A lockstep member has its predecessor's capability, so its
// share and its returned power are the predecessor's too, and it takes
// the predecessor's post-step state.
func (p *Pool) transfer(total units.Power, dt time.Duration, discharge bool) units.Power {
	caps := p.caps
	same := p.lockstep()
	var capSum units.Power
	for i := range p.members {
		switch {
		case same&(1<<i) != 0:
			caps[i] = caps[i-1]
		case discharge:
			caps[i] = p.memberMaxDischarge(i)
		default:
			caps[i] = p.memberMaxCharge(i)
		}
		capSum += caps[i]
	}
	if total <= 0 || capSum <= 0 {
		p.rest(same, dt)
		return 0
	}
	if total > capSum {
		total = capSum
	}
	var moved, got units.Power
	for i := range p.members {
		if same&(1<<i) != 0 {
			p.follow(i)
		} else {
			share := units.Power(float64(total) * float64(caps[i]) / float64(capSum))
			if discharge {
				got = p.memberDischarge(i, share, dt)
			} else {
				got = p.memberCharge(i, share, dt)
			}
		}
		moved += got
	}
	return moved
}

// Rest advances all members without load.
func (p *Pool) Rest(dt time.Duration) {
	p.rest(p.lockstep(), dt)
}

func (p *Pool) rest(same uint64, dt time.Duration) {
	for i := range p.members {
		if same&(1<<i) != 0 {
			p.follow(i)
		} else {
			p.memberRest(i, dt)
		}
	}
}

// Stats sums member ledgers.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, m := range p.members {
		s.add(m.Stats())
	}
	return s
}

// Reset resets all members.
func (p *Pool) Reset() {
	for _, m := range p.members {
		m.Reset()
	}
}

// SetSoC forces every member supporting it to the given state of charge
// (experiment setup; see Battery.SetSoC).
func (p *Pool) SetSoC(frac float64) {
	for _, m := range p.members {
		if s, ok := m.(interface{ SetSoC(float64) }); ok {
			s.SetSoC(frac)
		}
	}
}

// Wear aggregates wear reports from battery members; non-battery members
// are skipped. The second result is the number of batteries found.
func (p *Pool) Wear() (WearReport, int) {
	var sum WearReport
	n := 0
	for _, m := range p.members {
		b, ok := m.(*Battery)
		if !ok {
			continue
		}
		r := b.Wear()
		sum.ThroughputAh += r.ThroughputAh
		sum.WeightedAh += r.WeightedAh
		sum.RatedAh += r.RatedAh
		sum.EquivalentFullCycles += r.EquivalentFullCycles
		if r.PeakStressWeight > sum.PeakStressWeight {
			sum.PeakStressWeight = r.PeakStressWeight
		}
		n++
	}
	if n > 0 {
		sum.EquivalentFullCycles /= float64(n)
		if sum.RatedAh > 0 {
			sum.LifeFractionUsed = sum.WeightedAh / sum.RatedAh
		}
	}
	return sum, n
}
