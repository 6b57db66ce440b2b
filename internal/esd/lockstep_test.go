package esd

import (
	"math"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"heb/internal/units"
)

// The lockstep tests drive a pool and, beside it, an identical set of
// reference members through the same calls. The reference members are
// stepped one at a time through their own methods by refTransfer, the
// pool's proportional split written out without any shortcut. Every
// member's checkpoint and every returned power must match bit for bit.

// lockBatteryConfig turns on every battery state the shortcut has to
// carry: thermal state and capacity fade driven by wear.
func lockBatteryConfig() BatteryConfig {
	cfg := DefaultBatteryConfig()
	cfg.Thermal = DefaultThermalConfig()
	cfg.FadeAtEOL = 0.2
	cfg.ResistanceGrowthAtEOL = 0.5
	// A small string wears fast enough for fade to move within a test.
	cfg.CapacityAh = 2
	return cfg
}

// lockRig is a pool under test and its reference members.
type lockRig struct {
	pool *Pool
	ref  []Device
}

func newLockRig(n int, battery bool) *lockRig {
	var members, ref []Device
	for range n {
		if battery {
			members = append(members, MustNewBattery(lockBatteryConfig()))
			ref = append(ref, MustNewBattery(lockBatteryConfig()))
		} else {
			members = append(members, MustNewSupercap(DefaultSupercapConfig()))
			ref = append(ref, MustNewSupercap(DefaultSupercapConfig()))
		}
	}
	return &lockRig{pool: MustNewPool("lock", members...), ref: ref}
}

// refTransfer is Pool.transfer stepping every member in full.
func refTransfer(ms []Device, total units.Power, dt time.Duration, discharge bool) units.Power {
	caps := make([]units.Power, len(ms))
	var capSum units.Power
	for i, m := range ms {
		if discharge {
			caps[i] = m.MaxDischargePower()
		} else {
			caps[i] = m.MaxChargePower()
		}
		capSum += caps[i]
	}
	if total <= 0 || capSum <= 0 {
		for _, m := range ms {
			m.Rest(dt)
		}
		return 0
	}
	total = min(total, capSum)
	var moved units.Power
	for i, m := range ms {
		share := units.Power(float64(total) * float64(caps[i]) / float64(capSum))
		if discharge {
			moved += m.Discharge(share, dt)
		} else {
			moved += m.Charge(share, dt)
		}
	}
	return moved
}

// lockOp is one call on the rig: 'd' discharge, 'c' charge, 'r' rest,
// 'f' fail member i, 'p' repair it, 's' set its SoC to frac, 'x' restore
// it from its predecessor's checkpoint, 'S' set the whole pool's SoC.
type lockOp struct {
	op   byte
	i    int
	p    units.Power
	dt   time.Duration
	frac float64
}

// apply runs op on the pool and the reference and fails t on any
// difference in returned power, member state or pool reading.
func (r *lockRig) apply(t *testing.T, step int, o lockOp) {
	t.Helper()
	members := r.pool.Members()
	switch o.op {
	case 'd', 'c':
		discharge := o.op == 'd'
		var got units.Power
		if discharge {
			got = r.pool.Discharge(o.p, o.dt)
		} else {
			got = r.pool.Charge(o.p, o.dt)
		}
		if want := refTransfer(r.ref, o.p, o.dt, discharge); !eq(float64(got), float64(want)) {
			t.Fatalf("step %d %c(%v, %v): pool moved %v, reference %v", step, o.op, o.p, o.dt, got, want)
		}
	case 'r':
		r.pool.Rest(o.dt)
		for _, m := range r.ref {
			m.Rest(o.dt)
		}
	case 'f', 'p':
		for _, d := range []Device{members[o.i], r.ref[o.i]} {
			f := d.(interface {
				Fail()
				Repair()
			})
			if o.op == 'f' {
				f.Fail()
			} else {
				f.Repair()
			}
		}
	case 's':
		for _, d := range []Device{members[o.i], r.ref[o.i]} {
			d.(interface{ SetSoC(float64) }).SetSoC(o.frac)
		}
	case 'x':
		if o.i == 0 {
			break
		}
		for _, ms := range [][]Device{members, r.ref} {
			st, err := CheckpointDevice(ms[o.i-1])
			if err != nil {
				t.Fatal(err)
			}
			if err := RestoreDevice(ms[o.i], st); err != nil {
				t.Fatal(err)
			}
		}
	case 'S':
		r.pool.SetSoC(o.frac)
		for _, m := range r.ref {
			m.(interface{ SetSoC(float64) }).SetSoC(o.frac)
		}
	}
	r.check(t, step, o)
}

// check compares every member's checkpoint and the pool's read paths with
// the reference.
func (r *lockRig) check(t *testing.T, step int, o lockOp) {
	t.Helper()
	for i, m := range r.pool.Members() {
		got, want := memberCheckpoint(m), memberCheckpoint(r.ref[i])
		if !sameBits(got, want) {
			t.Fatalf("step %d %c: member %d state %+v, reference %+v", step, o.op, i, got, want)
		}
	}
	var soc, den float64
	var stored units.Energy
	var maxDis, maxChg units.Power
	depleted := true
	for _, m := range r.ref {
		c := float64(m.Capacity())
		soc += m.SoC() * c
		den += c
		stored += m.Stored()
		maxDis += m.MaxDischargePower()
		maxChg += m.MaxChargePower()
		depleted = depleted && m.Depleted()
	}
	soc /= den
	readings := []struct {
		name      string
		got, want float64
	}{
		{"SoC", r.pool.SoC(), soc},
		{"Stored", float64(r.pool.Stored()), float64(stored)},
		{"MaxDischargePower", float64(r.pool.MaxDischargePower()), float64(maxDis)},
		{"MaxChargePower", float64(r.pool.MaxChargePower()), float64(maxChg)},
	}
	for _, rd := range readings {
		if !eq(rd.got, rd.want) {
			t.Fatalf("step %d %c: pool %s %v, reference %v", step, o.op, rd.name, rd.got, rd.want)
		}
	}
	if got := r.pool.Depleted(); got != depleted {
		t.Fatalf("step %d %c: pool Depleted %v, reference %v", step, o.op, got, depleted)
	}
	if got, want := r.pool.TerminalVoltage(60), refTerminalVoltage(r.ref, 60); !eq(float64(got), float64(want)) {
		t.Fatalf("step %d %c: pool TerminalVoltage %v, reference %v", step, o.op, got, want)
	}
}

// memberCheckpoint returns a member's Checkpoint() as a struct value.
func memberCheckpoint(d Device) reflect.Value {
	switch m := d.(type) {
	case *Battery:
		return reflect.ValueOf(m.Checkpoint())
	case *Supercap:
		return reflect.ValueOf(m.Checkpoint())
	}
	panic("lockstep rig holds only batteries and supercaps")
}

// refTerminalVoltage is Pool.TerminalVoltage over the reference members.
func refTerminalVoltage(ms []Device, load units.Power) units.Voltage {
	caps := make([]units.Power, len(ms))
	var capSum units.Power
	var vmax units.Voltage
	for i, m := range ms {
		caps[i] = m.MaxDischargePower()
		capSum += caps[i]
		vmax = max(vmax, m.Voltage())
	}
	if capSum <= 0 {
		return vmax
	}
	load = min(load, capSum)
	var num, den float64
	for i, m := range ms {
		share := units.Power(float64(load) * float64(caps[i]) / float64(capSum))
		v := m.(interface {
			TerminalVoltage(units.Power) units.Voltage
		}).TerminalVoltage(share)
		num += float64(v) * float64(caps[i])
		den += float64(caps[i])
	}
	if den == 0 {
		return vmax
	}
	return units.Voltage(num / den)
}

// lockScript mixes the three transfers with varied step lengths (a zero
// step included), then makes member 1 diverge through a fault, a
// per-member SetSoC and a restore, and brings it back into lockstep by
// restoring it from member 0.
func lockScript(n int) []lockOp {
	var ops []lockOp
	dts := []time.Duration{time.Second, 10 * time.Second, 0, 120 * time.Second, 3 * time.Second, 600 * time.Second}
	cycle := func(k int) {
		for j := range k {
			dt := dts[j%len(dts)]
			ops = append(ops,
				lockOp{op: 'd', p: units.Power(60 + 40*(j%5)), dt: dt},
				lockOp{op: 'd', p: 400, dt: dt},
				lockOp{op: 'r', dt: dts[(j+1)%len(dts)]},
				lockOp{op: 'c', p: units.Power(30 + 50*(j%4)), dt: dt},
			)
		}
	}
	cycle(40)
	ops = append(ops, lockOp{op: 'f', i: 1})
	cycle(6)
	ops = append(ops, lockOp{op: 'p', i: 1})
	cycle(6)
	ops = append(ops, lockOp{op: 'x', i: 1})
	cycle(6)
	ops = append(ops, lockOp{op: 's', i: 1, frac: 0.4})
	cycle(6)
	ops = append(ops, lockOp{op: 'S', frac: 0.3})
	cycle(6)
	for i := 1; i < n; i++ {
		ops = append(ops, lockOp{op: 'x', i: i})
	}
	cycle(20)
	return ops
}

func TestPoolLockstepMatchesPerMemberReference(t *testing.T) {
	for _, battery := range []bool{true, false} {
		for _, n := range []int{2, 3} {
			r := newLockRig(n, battery)
			all := uint64(1)<<n - 2 // every member but the first
			if r.pool.lock != all {
				t.Fatalf("battery=%v n=%d: lockstep candidates %b, want %b", battery, n, r.pool.lock, all)
			}
			var lockstepped, diverged bool
			for k, o := range lockScript(n) {
				r.apply(t, k, o)
				switch same := r.pool.lockstep(); same {
				case all:
					lockstepped = true
				case 0:
					diverged = true
				}
			}
			if !lockstepped || !diverged {
				t.Errorf("battery=%v n=%d: script never had all members in lockstep (%v) or all diverged (%v)", battery, n, lockstepped, diverged)
			}
			if r.pool.lockstep() != all {
				t.Errorf("battery=%v n=%d: restored members did not rejoin lockstep: %b", battery, n, r.pool.lockstep())
			}
		}
	}
}

// TestPoolLockstepWearMovesFade checks that the script does age the
// batteries, so fade and resistance growth are part of what it compares.
func TestPoolLockstepWearMovesFade(t *testing.T) {
	r := newLockRig(2, true)
	for k, o := range lockScript(2) {
		r.apply(t, k, o)
	}
	b := r.pool.Members()[0].(*Battery)
	if b.lifeFraction() <= 0 || b.qMax() >= b.qNominal {
		t.Fatalf("no capacity fade after the script: life fraction %g", b.lifeFraction())
	}
	if hot, _ := b.Thermal(); hot == b.cfg.Thermal.AmbientC {
		t.Fatal("cell never left ambient temperature")
	}
}

func TestPoolLockstepCandidates(t *testing.T) {
	cfg := DefaultBatteryConfig()
	other := cfg
	other.SagOhm = math.Copysign(0, -1) // differs from +0 only in its bits
	zero := cfg
	zero.SagOhm = 0
	b := MustNewBattery(cfg)
	cases := []struct {
		name    string
		members []Device
		want    uint64
	}{
		{"identical", []Device{MustNewBattery(cfg), MustNewBattery(cfg), MustNewBattery(cfg)}, 0b110},
		{"config differs", []Device{MustNewBattery(cfg), MustNewBattery(zero), MustNewBattery(other)}, 0},
		{"type differs", []Device{MustNewBattery(cfg), MustNewSupercap(DefaultSupercapConfig()), MustNewSupercap(DefaultSupercapConfig())}, 0b100},
		{"member listed twice", []Device{b, MustNewBattery(cfg), b}, 0},
		{"foreign device", []Device{MustNewBattery(cfg), MustNewBattery(cfg), Null{}}, 0},
	}
	for _, c := range cases {
		if got := MustNewPool(c.name, c.members...).lock; got != c.want {
			t.Errorf("%s: lockstep candidates %b, want %b", c.name, got, c.want)
		}
	}
}

// Every field of Battery and Supercap is either mutable state, which
// sameState compares and copyState copies, or config and derived memo,
// which neither touches. A field added later must be filed here.
var (
	batteryState   = []string{"q1", "q2", "failed", "thermal", "stats", "wear"}
	batteryDerived = []string{"cfg", "qNominal", "ocvLo", "ocvSpan", "kPerSec", "leakPerSec",
		"iRate", "vCut", "thermalOn", "fadeOn", "flowSecs", "flowH", "flowSteps"}
	supercapState   = []string{"v", "failed", "stats"}
	supercapDerived = []string{"cfg", "vFloor", "leakSecs", "leakFactor"}
	// stateMemo lists the step-length memos nested inside state fields:
	// copied along with their field but never compared.
	stateMemo = map[string]bool{"thermal.alphaSecs": true, "thermal.alpha": true}
)

func TestLockstepFieldsFiled(t *testing.T) {
	for _, c := range []struct {
		typ            reflect.Type
		state, derived []string
	}{
		{reflect.TypeOf(Battery{}), batteryState, batteryDerived},
		{reflect.TypeOf(Supercap{}), supercapState, supercapDerived},
	} {
		filed := map[string]int{}
		for _, f := range c.state {
			filed[f]++
		}
		for _, f := range c.derived {
			filed[f]++
		}
		for i := range c.typ.NumField() {
			name := c.typ.Field(i).Name
			switch filed[name] {
			case 0:
				t.Errorf("%v.%s is filed neither as state nor as config/derived memo", c.typ, name)
			case 2:
				t.Errorf("%v.%s is filed as both state and config/derived memo", c.typ, name)
			}
			delete(filed, name)
		}
		for name := range filed {
			t.Errorf("%v has no field %s", c.typ, name)
		}
	}
}

// field returns a settable view of a (possibly unexported) struct field.
func field(v reflect.Value, name string) reflect.Value {
	f := v.FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// leaves calls fn with every scalar inside v and its dotted path.
func leaves(v reflect.Value, path string, fn func(path string, leaf reflect.Value)) {
	if v.Kind() != reflect.Struct {
		fn(path, v)
		return
	}
	for i := range v.NumField() {
		name := v.Type().Field(i).Name
		leaves(field(v, name), path+"."+name, fn)
	}
}

// perturb changes a scalar to a value that differs from it in its bits.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1))
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int64:
		v.SetInt(v.Int() + 1)
	default:
		t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
	}
}

// TestLockstepStateCoversEveryLeaf perturbs each scalar of each state
// field in turn: sameState must notice it, and copyState must carry it.
func TestLockstepStateCoversEveryLeaf(t *testing.T) {
	newBat := func() *Battery { return MustNewBattery(lockBatteryConfig()) }
	newSC := func() *Supercap { return MustNewSupercap(DefaultSupercapConfig()) }
	for _, c := range []struct {
		state []string
		fresh func() (a, b any)
		same  func(a, b any) bool
		copy  func(dst, src any)
	}{
		{batteryState,
			func() (any, any) { return newBat(), newBat() },
			func(a, b any) bool { return a.(*Battery).sameState(b.(*Battery)) },
			func(dst, src any) { dst.(*Battery).copyState(src.(*Battery)) }},
		{supercapState,
			func() (any, any) { return newSC(), newSC() },
			func(a, b any) bool { return a.(*Supercap).sameState(b.(*Supercap)) },
			func(dst, src any) { dst.(*Supercap).copyState(src.(*Supercap)) }},
	} {
		for _, name := range c.state {
			a, _ := c.fresh()
			leaves(field(reflect.ValueOf(a).Elem(), name), name, func(path string, _ reflect.Value) {
				x, y := c.fresh()
				if !c.same(x, y) {
					t.Fatalf("%s: fresh devices differ", path)
				}
				var leaf reflect.Value
				leaves(field(reflect.ValueOf(x).Elem(), name), name, func(p string, l reflect.Value) {
					if p == path {
						leaf = l
					}
				})
				perturb(t, path, leaf)
				if stateMemo[path] {
					if !c.same(x, y) {
						t.Errorf("%s is a memo but sameState compares it", path)
					}
					return
				}
				if c.same(x, y) {
					t.Errorf("sameState misses %s", path)
				}
				c.copy(y, x)
				if !c.same(x, y) || !reflect.DeepEqual(field(reflect.ValueOf(x).Elem(), name).Interface(),
					field(reflect.ValueOf(y).Elem(), name).Interface()) {
					t.Errorf("copyState does not carry %s", path)
				}
			})
		}
	}
}

// FuzzPoolLockstep drives random op sequences through a pool and its
// per-member reference. The first byte picks the member type and pool
// size; each following 4-byte group is one op, member, power and step.
func FuzzPoolLockstep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 70, 0, 3, 0, 60, 1, 1, 1, 0, 0, 0, 0, 200, 2})
	f.Add([]byte{3, 0, 0, 255, 1, 3, 2, 0, 0, 0, 1, 90, 3, 6, 1, 0, 0, 1, 0, 250, 1})
	f.Add([]byte{1, 1, 0, 30, 4, 7, 0, 128, 0, 2, 2, 100, 5, 5, 2, 0, 0})
	dts := []time.Duration{time.Second, 0, 7 * time.Second, 90 * time.Second, 600 * time.Second, 2 * time.Second}
	ops := []byte{'d', 'c', 'r', 'f', 'p', 's', 'x', 'S', 'd', 'c'}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]>>1)%2
		r := newLockRig(n, data[0]&1 == 0)
		data = data[1:]
		for k := 0; k+4 <= len(data) && k < 4*256; k += 4 {
			o := lockOp{
				op:   ops[int(data[k])%len(ops)],
				i:    int(data[k+1]) % n,
				p:    units.Power(data[k+2]) * 2,
				frac: float64(data[k+2]) / 255,
				dt:   dts[int(data[k+3])%len(dts)],
			}
			r.apply(t, k/4, o)
		}
	})
}
