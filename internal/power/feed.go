package power

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"heb/internal/units"
)

// Feed is a power source with a time-varying availability: the utility
// grid under a provisioned budget, or a renewable generator. At each
// simulation step the engine asks Available and records what it drew.
type Feed interface {
	// Available returns the power the feed can supply at time t.
	Available(t time.Duration) units.Power
	// Name identifies the feed in reports.
	Name() string
}

// UtilityFeed is grid power capped at the provisioned budget — the
// under-provisioned infrastructure of Section 2.1. Budget is what the
// breakers/contract allow, not what the load wants.
type UtilityFeed struct {
	budget units.Power
	drawn  units.Energy
	peak   units.Power
}

// NewUtilityFeed builds a grid feed with the given provisioned budget.
func NewUtilityFeed(budget units.Power) (*UtilityFeed, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("power: utility budget %v must be positive", budget)
	}
	return &UtilityFeed{budget: budget}, nil
}

// MustNewUtilityFeed is NewUtilityFeed for known-good budgets.
func MustNewUtilityFeed(budget units.Power) *UtilityFeed {
	f, err := NewUtilityFeed(budget)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements Feed.
func (f *UtilityFeed) Name() string { return "utility" }

// Budget returns the provisioned power budget.
func (f *UtilityFeed) Budget() units.Power { return f.budget }

// SetBudget adjusts the provisioned budget (the experiments lower it to
// force mismatches).
func (f *UtilityFeed) SetBudget(b units.Power) { f.budget = b }

// Available implements Feed: the grid always offers exactly the budget.
func (f *UtilityFeed) Available(time.Duration) units.Power { return f.budget }

// RecordDraw notes p watts drawn for dt, tracking energy and peak demand
// for the TCO peak-tariff analysis.
func (f *UtilityFeed) RecordDraw(p units.Power, dt time.Duration) {
	if p <= 0 {
		return
	}
	f.drawn += p.Over(dt)
	if p > f.peak {
		f.peak = p
	}
}

// Reset clears the cumulative draw accounting, keeping the budget — the
// state a fresh NewUtilityFeed(f.Budget()) would have.
func (f *UtilityFeed) Reset() { f.drawn, f.peak = 0, 0 }

// EnergyDrawn returns cumulative grid energy.
func (f *UtilityFeed) EnergyDrawn() units.Energy { return f.drawn }

// PeakDraw returns the highest recorded draw.
func (f *UtilityFeed) PeakDraw() units.Power { return f.peak }

// TraceFeed replays a pre-computed availability series (used for solar
// generation and recorded grid traces). Between samples it holds the
// previous value (zero-order hold).
type TraceFeed struct {
	name    string
	step    time.Duration
	samples []units.Power
}

// NewTraceFeed builds a feed from samples spaced step apart.
func NewTraceFeed(name string, step time.Duration, samples []units.Power) (*TraceFeed, error) {
	if step <= 0 {
		return nil, fmt.Errorf("power: trace feed step %v must be positive", step)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("power: trace feed %q needs samples", name)
	}
	for i, s := range samples {
		if s < 0 {
			return nil, fmt.Errorf("power: trace feed %q sample %d is negative (%v)", name, i, s)
		}
	}
	return &TraceFeed{name: name, step: step, samples: samples}, nil
}

// MustNewTraceFeed is NewTraceFeed for known-good traces.
func MustNewTraceFeed(name string, step time.Duration, samples []units.Power) *TraceFeed {
	f, err := NewTraceFeed(name, step, samples)
	if err != nil {
		panic(err)
	}
	return f
}

// Name implements Feed.
func (f *TraceFeed) Name() string { return f.name }

// Len returns the number of samples.
func (f *TraceFeed) Len() int { return len(f.samples) }

// AppendContent appends the feed's exact content to b: its name, step
// and the bits of every sample. Two feeds with equal content replay the
// same availability, so callers may key results on it.
func (f *TraceFeed) AppendContent(b []byte) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(len(f.name)))
	b = append(b, f.name...)
	b = binary.LittleEndian.AppendUint64(b, uint64(f.step))
	for _, s := range f.samples {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(float64(s)))
	}
	return b
}

// Duration returns the trace's covered time span.
func (f *TraceFeed) Duration() time.Duration {
	return time.Duration(len(f.samples)) * f.step
}

// Available implements Feed: zero-order hold over the samples; past the
// end the trace wraps around, so long simulations see repeating days.
func (f *TraceFeed) Available(t time.Duration) units.Power {
	if t < 0 {
		return f.samples[0]
	}
	i := int(t/f.step) % len(f.samples)
	return f.samples[i]
}
