package power

import (
	"fmt"
	"sort"
	"time"

	"heb/internal/units"
)

// Source identifies what feeds a server through its two-way relay.
type Source int

// The relay positions. SourceOff models a shed server (the IPDU cut the
// outlet because no source could carry it).
const (
	SourceUtility Source = iota
	SourceBattery
	SourceSupercap
	SourceOff
)

// NumSources is the number of relay positions; DemandPerSource returns an
// array indexed by Source with this length.
const NumSources = 4

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceUtility:
		return "utility"
	case SourceBattery:
		return "battery"
	case SourceSupercap:
		return "supercap"
	case SourceOff:
		return "off"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Assignment maps server IDs to their relay position.
type Assignment map[int]Source

// Clone returns a deep copy.
func (a Assignment) Clone() Assignment {
	out := make(Assignment, len(a))
	for k, v := range a {
		out[k] = v
	}
	return out
}

// Count returns how many servers sit on src.
func (a Assignment) Count(src Source) int {
	n := 0
	for _, s := range a {
		if s == src {
			n++
		}
	}
	return n
}

// Fabric is the two-way relay switch fabric plus the IPDU metering of the
// prototype. It owns the servers, tracks per-server source assignment and
// last-use times (for least-recently-used shedding, Section 7.2), and
// produces per-source demand aggregates for the simulator. Individual
// relays can be failed for fault-injection experiments: a stuck relay
// keeps its last position and rejects switching.
//
// Per-server state is stored densely by the server's position in the
// constructor slice, not in maps: the simulation engine consults the
// fabric several times per tick, and the dense layout keeps those reads
// allocation-free and cache-friendly. A Fabric is not safe for concurrent
// use; parallel sweeps give each run its own Fabric.
type Fabric struct {
	servers []*Server
	index   map[int]int // server id -> position in servers
	dense   bool        // ids equal positions (the common case), skip the map

	// All indexed by position, not id.
	assign  []Source
	lastUse []time.Duration
	stuck   []bool

	offline int // count of positions currently on SourceOff

	// switches counts effective relay movements by destination position;
	// a no-op Assign (same source) does not count — only physical relay
	// actuations matter for the wear and event accounting.
	switches [NumSources]int64
	// onSwitch, when set, observes each effective relay movement. It is
	// invoked synchronously from Assign, so it must be cheap; the nil
	// default costs one predictable branch.
	onSwitch func(id int, from, to Source)

	lru lruSorter // persistent sorter state for LRUOrderInto

	meter Meter
}

// Meter is the IPDU's cumulative energy metering by source.
type Meter struct {
	Utility  units.Energy
	Battery  units.Energy
	Supercap units.Energy
	// Unserved is demand that existed while a server was shed.
	Unserved units.Energy
	// DowntimeServerSeconds accumulates server-seconds spent shed.
	DowntimeServerSeconds float64
}

// NewFabric wires the given servers, all initially on utility power.
func NewFabric(servers []*Server) (*Fabric, error) {
	if len(servers) == 0 {
		return nil, fmt.Errorf("power: fabric needs at least one server")
	}
	f := &Fabric{
		servers: servers,
		index:   make(map[int]int, len(servers)),
		dense:   true,
		assign:  make([]Source, len(servers)),
		lastUse: make([]time.Duration, len(servers)),
		stuck:   make([]bool, len(servers)),
	}
	f.lru.f = f
	for i, s := range servers {
		if s == nil {
			return nil, fmt.Errorf("power: nil server in fabric")
		}
		if _, dup := f.index[s.ID()]; dup {
			return nil, fmt.Errorf("power: duplicate server id %d", s.ID())
		}
		f.index[s.ID()] = i
		if s.ID() != i {
			f.dense = false
		}
		f.assign[i] = SourceUtility
	}
	return f, nil
}

// MustNewFabric is NewFabric for known-good server lists.
func MustNewFabric(servers []*Server) *Fabric {
	f, err := NewFabric(servers)
	if err != nil {
		panic(err)
	}
	return f
}

// idx resolves a server id to its dense position, or -1 when unknown.
func (f *Fabric) idx(id int) int {
	if f.dense {
		if id >= 0 && id < len(f.servers) {
			return id
		}
		return -1
	}
	if i, ok := f.index[id]; ok {
		return i
	}
	return -1
}

// Servers returns the managed servers (shared, not copied).
func (f *Fabric) Servers() []*Server { return f.servers }

// NumServers returns the server count.
func (f *Fabric) NumServers() int { return len(f.servers) }

// Assignment returns a copy of the current relay state.
func (f *Fabric) Assignment() Assignment {
	out := make(Assignment, len(f.servers))
	for i, s := range f.servers {
		out[s.ID()] = f.assign[i]
	}
	return out
}

// SourceOf returns the relay position of server id (SourceUtility for
// unknown ids, matching the zero value).
func (f *Fabric) SourceOf(id int) Source {
	if i := f.idx(id); i >= 0 {
		return f.assign[i]
	}
	return SourceUtility
}

// ServerByID returns the server with the given id, or nil when unknown.
func (f *Fabric) ServerByID(id int) *Server {
	if i := f.idx(id); i >= 0 {
		return f.servers[i]
	}
	return nil
}

// IndexOf returns server id's position in Servers(), or -1 when unknown.
// The position is a stable dense index callers can key scratch buffers by.
func (f *Fabric) IndexOf(id int) int { return f.idx(id) }

// ErrRelayStuck reports an Assign against a failed relay.
var ErrRelayStuck = fmt.Errorf("power: relay stuck")

// FailRelay injects a stuck-relay fault: server id keeps its current
// source and every further Assign for it fails with ErrRelayStuck.
func (f *Fabric) FailRelay(id int) error {
	i := f.idx(id)
	if i < 0 {
		return fmt.Errorf("power: unknown server id %d", id)
	}
	f.stuck[i] = true
	return nil
}

// RepairRelay clears a stuck-relay fault.
func (f *Fabric) RepairRelay(id int) {
	if i := f.idx(id); i >= 0 {
		f.stuck[i] = false
	}
}

// RelayStuck reports whether server id's relay is failed.
func (f *Fabric) RelayStuck(id int) bool {
	i := f.idx(id)
	return i >= 0 && f.stuck[i]
}

// Assign flips the relay of server id to src. Assigning SourceOff powers
// the server down; assigning anything else powers it up. A stuck relay
// rejects the switch with ErrRelayStuck.
func (f *Fabric) Assign(id int, src Source) error {
	i := f.idx(id)
	if i < 0 {
		return fmt.Errorf("power: unknown server id %d", id)
	}
	if f.stuck[i] && f.assign[i] != src {
		return fmt.Errorf("%w: server %d held on %v", ErrRelayStuck, id, f.assign[i])
	}
	was := f.assign[i]
	f.assign[i] = src
	if was != src {
		f.switches[src]++
		if f.onSwitch != nil {
			f.onSwitch(id, was, src)
		}
	}
	if was == SourceOff && src != SourceOff {
		f.offline--
	} else if was != SourceOff && src == SourceOff {
		f.offline++
	}
	srv := f.servers[i]
	if src == SourceOff {
		srv.PowerOff()
	} else {
		srv.PowerOn()
	}
	return nil
}

// AssignSplit implements the paper's R_λ allocation: servers needing
// storage are split so that a fraction ratio of them lands on the
// super-capacitor pool and the rest on batteries. The ids slice lists the
// servers that must move to storage (the overload set); ratio is clamped
// to [0,1]. Servers are ordered by descending demand so the SC pool
// receives the largest transient draws first, matching the design intent
// of shielding batteries from high current.
func (f *Fabric) AssignSplit(ids []int, ratio float64) {
	ratio = units.Clamp(ratio, 0, 1)
	ordered := append([]int(nil), ids...)
	sort.Slice(ordered, func(i, j int) bool {
		di := f.ServerByID(ordered[i]).Demand()
		dj := f.ServerByID(ordered[j]).Demand()
		if di != dj {
			return di > dj
		}
		return ordered[i] < ordered[j]
	})
	nSC := int(float64(len(ordered))*ratio + 0.5)
	for i, id := range ordered {
		if i < nSC {
			_ = f.Assign(id, SourceSupercap)
		} else {
			_ = f.Assign(id, SourceBattery)
		}
	}
}

// DemandPerSource aggregates instantaneous demand per relay position into
// an array indexed by Source. It performs no allocation; the engine calls
// it on every mismatch tick. Shed servers contribute nothing (the
// SourceOff entry stays zero).
func (f *Fabric) DemandPerSource() (out [NumSources]units.Power) {
	for i, s := range f.servers {
		if src := f.assign[i]; src != SourceOff {
			out[src] += s.Demand()
		}
	}
	return out
}

// DemandBySource aggregates instantaneous demand per relay position.
// Allocation-averse callers should prefer DemandPerSource.
func (f *Fabric) DemandBySource() map[Source]units.Power {
	per := f.DemandPerSource()
	out := map[Source]units.Power{}
	for src, d := range per {
		if d != 0 {
			out[Source(src)] = d
		}
	}
	return out
}

// TotalDemand is the aggregate draw of all powered servers.
func (f *Fabric) TotalDemand() units.Power {
	var p units.Power
	for i, s := range f.servers {
		if f.assign[i] != SourceOff {
			p += s.Demand()
		}
	}
	return p
}

// NumOffline returns how many servers are currently shed.
func (f *Fabric) NumOffline() int { return f.offline }

// FirstOffline returns the lowest shed server id, or ok=false when every
// server is powered. It allocates nothing.
func (f *Fabric) FirstOffline() (id int, ok bool) {
	if f.offline == 0 {
		return 0, false
	}
	best, found := 0, false
	for i, s := range f.servers {
		if f.assign[i] != SourceOff {
			continue
		}
		if !found || s.ID() < best {
			best, found = s.ID(), true
		}
	}
	return best, found
}

// OfflineServers returns the ids currently shed, sorted ascending.
func (f *Fabric) OfflineServers() []int {
	if f.offline == 0 {
		return nil
	}
	ids := make([]int, 0, f.offline)
	for i, s := range f.servers {
		if f.assign[i] == SourceOff {
			ids = append(ids, s.ID())
		}
	}
	sort.Ints(ids)
	return ids
}

// Touch records that server id did useful work at simulation time now;
// the LRU shedding order uses these stamps.
func (f *Fabric) Touch(id int, now time.Duration) {
	if i := f.idx(id); i >= 0 {
		f.lastUse[i] = now
	}
}

// lruSorter sorts server ids least-recently-used first. It lives on the
// Fabric so repeated LRU sorts reuse one sort.Interface value instead of
// allocating a closure per call.
type lruSorter struct {
	ids []int
	f   *Fabric
}

func (s *lruSorter) Len() int      { return len(s.ids) }
func (s *lruSorter) Swap(i, j int) { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }
func (s *lruSorter) Less(i, j int) bool {
	ti := s.f.lastUse[s.f.idx(s.ids[i])]
	tj := s.f.lastUse[s.f.idx(s.ids[j])]
	if ti != tj {
		return ti < tj
	}
	return s.ids[i] < s.ids[j]
}

// LRUOrderInto fills buf with all server ids sorted least-recently-used
// first and returns it, growing buf only when its capacity is short. It is
// the allocation-free form of LRUOrder for per-tick callers.
func (f *Fabric) LRUOrderInto(buf []int) []int {
	buf = buf[:0]
	for _, s := range f.servers {
		buf = append(buf, s.ID())
	}
	f.lru.ids = buf
	sort.Sort(&f.lru)
	f.lru.ids = nil
	return buf
}

// LRUOrder returns all server ids sorted least-recently-used first —
// the order in which the controller sheds servers when the buffers run
// dry ("We chose the least recently used servers to shut down", §7.2).
func (f *Fabric) LRUOrder() []int {
	return f.LRUOrderInto(make([]int, 0, len(f.servers)))
}

// MeterStepPools records dt worth of energy flows at the present
// assignment and demand, given the power each storage pool actually
// delivered (after depletion); the difference between a pool's aggregate
// demand and its delivered share counts as unserved energy. This is the
// allocation-free form of MeterStep.
func (f *Fabric) MeterStepPools(dt time.Duration, servedBA, servedSC units.Power) {
	demand := f.DemandPerSource()
	f.meter.Utility += demand[SourceUtility].Over(dt)

	pool := func(served, want units.Power) (credited units.Power) {
		if served > want {
			served = want
		}
		if want > served {
			f.meter.Unserved += (want - served).Over(dt)
		}
		return served
	}
	f.meter.Battery += pool(servedBA, demand[SourceBattery]).Over(dt)
	f.meter.Supercap += pool(servedSC, demand[SourceSupercap]).Over(dt)
	f.meter.DowntimeServerSeconds += float64(f.offline) * dt.Seconds()
}

// MeterStep records dt worth of energy flows at the present assignment
// and demand. served maps each storage source to the power actually
// delivered; see MeterStepPools for the map-free form.
func (f *Fabric) MeterStep(dt time.Duration, served map[Source]units.Power) {
	f.MeterStepPools(dt, served[SourceBattery], served[SourceSupercap])
}

// SetSwitchListener installs fn to observe every effective relay movement
// (nil uninstalls). The listener runs synchronously inside Assign.
func (f *Fabric) SetSwitchListener(fn func(id int, from, to Source)) {
	f.onSwitch = fn
}

// SwitchCounts returns cumulative effective relay movements indexed by
// destination position. Moves to SourceOff are sheds, moves away from it
// restores; battery/supercap entries count pool (re)assignments.
func (f *Fabric) SwitchCounts() [NumSources]int64 { return f.switches }

// SourceCounts returns how many servers currently sit on each relay
// position. The entries always sum to NumServers — each server's relay is
// in exactly one position — which is the exclusivity invariant the energy
// auditor checks every step. It allocates nothing.
func (f *Fabric) SourceCounts() (out [NumSources]int) {
	for _, src := range f.assign {
		out[src]++
	}
	return out
}

// Reset restores the fabric to its freshly constructed state: every
// relay back on utility, fault injections and LRU stamps cleared,
// switch counters and meter zeroed. Like NewFabric it leaves the
// servers' own state alone (callers reset those separately), performs
// no PowerOn side effects and notifies no switch listener — it is the
// run-state pooling path, not a simulated relay movement.
func (f *Fabric) Reset() {
	for i := range f.servers {
		f.assign[i] = SourceUtility
		f.lastUse[i] = 0
		f.stuck[i] = false
	}
	f.offline = 0
	f.switches = [NumSources]int64{}
	f.meter = Meter{}
}

// ResetSwitchCounts clears the relay movement counters.
func (f *Fabric) ResetSwitchCounts() { f.switches = [NumSources]int64{} }

// Meter returns the cumulative IPDU meter readings.
func (f *Fabric) Meter() Meter { return f.meter }

// ResetMeter clears the meter.
func (f *Fabric) ResetMeter() { f.meter = Meter{} }
