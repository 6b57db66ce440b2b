// Package forecast implements the power-demand predictors the HEB
// controller uses at each control slot (paper Section 5.2): the classical
// Holt-Winters triple exponential smoothing the paper selects [45, 46],
// plus the naive last-value predictor that the HEB-F baseline embodies and
// an oracle for ablation studies.
//
// The controller maintains two independent series — per-slot peak power
// and per-slot valley power — and predicts both; their difference is the
// expected power mismatch ΔPM for the coming slot.
package forecast

import (
	"fmt"
	"math"
)

// Predictor forecasts the next value of a scalar series.
type Predictor interface {
	// Observe appends the actual value for the just-finished period.
	Observe(v float64)
	// Predict returns the forecast for the next period. Before enough
	// observations arrive the predictor returns its best effort (the
	// last value, or zero when empty).
	Predict() float64
	// Name identifies the predictor in reports.
	Name() string
	// Reset discards all history.
	Reset()
}

// Naive predicts the most recent observation (the HEB-F scheme's
// "power demand value of the last time-slot").
type Naive struct {
	last float64
	seen bool
}

// NewNaive returns a last-value predictor.
func NewNaive() *Naive { return &Naive{} }

// Name implements Predictor.
func (n *Naive) Name() string { return "naive" }

// Observe implements Predictor.
func (n *Naive) Observe(v float64) { n.last, n.seen = v, true }

// Predict implements Predictor.
func (n *Naive) Predict() float64 {
	if !n.seen {
		return 0
	}
	return n.last
}

// Reset implements Predictor.
func (n *Naive) Reset() { *n = Naive{} }

// HoltWintersConfig tunes the triple exponential smoother.
type HoltWintersConfig struct {
	// Alpha smooths the level, Beta the trend, Gamma the seasonal
	// component; all in (0,1).
	Alpha, Beta, Gamma float64
	// SeasonLength is the number of slots per season (e.g. one day of
	// 10-minute slots = 144). Zero disables the seasonal component,
	// degrading gracefully to double (Holt) smoothing.
	SeasonLength int
	// Additive selects additive seasonality (we always use additive;
	// power mismatches can be zero, which breaks multiplicative forms).
}

// DefaultHoltWintersConfig returns the controller's defaults: responsive
// level tracking, gentle trend, daily seasonality for 10-minute slots.
func DefaultHoltWintersConfig() HoltWintersConfig {
	return HoltWintersConfig{Alpha: 0.45, Beta: 0.10, Gamma: 0.30, SeasonLength: 144}
}

// Validate reports the first invalid field.
func (c HoltWintersConfig) Validate() error {
	check := func(name string, v float64) error {
		if v <= 0 || v >= 1 {
			return fmt.Errorf("forecast: %s %g must be in (0,1)", name, v)
		}
		return nil
	}
	if err := check("alpha", c.Alpha); err != nil {
		return err
	}
	if err := check("beta", c.Beta); err != nil {
		return err
	}
	if c.SeasonLength > 0 {
		if err := check("gamma", c.Gamma); err != nil {
			return err
		}
	}
	if c.SeasonLength < 0 {
		return fmt.Errorf("forecast: season length %d must be non-negative", c.SeasonLength)
	}
	return nil
}

// HoltWinters is an additive triple exponential smoother.
type HoltWinters struct {
	cfg HoltWintersConfig

	level, trend float64
	season       []float64
	idx          int // season slot of the NEXT observation
	n            int // observations so far
	warmup       []float64
}

// newHoltWinters builds a smoother from cfg.
func newHoltWinters(cfg HoltWintersConfig) (*HoltWinters, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hw := &HoltWinters{cfg: cfg}
	hw.Reset()
	return hw, nil
}

// MustNewHoltWinters is newHoltWinters for known-good configs.
func MustNewHoltWinters(cfg HoltWintersConfig) *HoltWinters {
	hw, err := newHoltWinters(cfg)
	if err != nil {
		panic(err)
	}
	return hw
}

// Name implements Predictor.
func (hw *HoltWinters) Name() string { return "holt-winters" }

// Reset implements Predictor.
func (hw *HoltWinters) Reset() {
	hw.level, hw.trend = 0, 0
	hw.idx, hw.n = 0, 0
	hw.warmup = nil
	if hw.cfg.SeasonLength > 0 {
		hw.season = make([]float64, hw.cfg.SeasonLength)
	} else {
		hw.season = nil
	}
}

// Observe implements Predictor. The first season's worth of observations
// initializes the components; after that the standard additive updates
// run:
//
//	level  = α(v − s) + (1−α)(level + trend)
//	trend  = β(level − levelPrev) + (1−β)trend
//	s      = γ(v − level) + (1−γ)s
func (hw *HoltWinters) Observe(v float64) {
	m := hw.cfg.SeasonLength
	if m == 0 {
		hw.observeHolt(v)
		return
	}
	if hw.n < m {
		// Warm-up: collect one full season.
		hw.warmup = append(hw.warmup, v)
		hw.n++
		if hw.n == m {
			hw.initFromWarmup()
		}
		return
	}
	s := hw.season[hw.idx]
	prevLevel := hw.level
	hw.level = hw.cfg.Alpha*(v-s) + (1-hw.cfg.Alpha)*(hw.level+hw.trend)
	hw.trend = hw.cfg.Beta*(hw.level-prevLevel) + (1-hw.cfg.Beta)*hw.trend
	hw.season[hw.idx] = hw.cfg.Gamma*(v-hw.level) + (1-hw.cfg.Gamma)*s
	hw.idx = (hw.idx + 1) % m
	hw.n++
}

// observeHolt is the seasonless (double smoothing) update.
func (hw *HoltWinters) observeHolt(v float64) {
	if hw.n == 0 {
		hw.level = v
		hw.n++
		return
	}
	if hw.n == 1 {
		hw.trend = v - hw.level
		hw.level = v
		hw.n++
		return
	}
	prevLevel := hw.level
	hw.level = hw.cfg.Alpha*v + (1-hw.cfg.Alpha)*(hw.level+hw.trend)
	hw.trend = hw.cfg.Beta*(hw.level-prevLevel) + (1-hw.cfg.Beta)*hw.trend
	hw.n++
}

// initFromWarmup seeds level, trend and season from the first full season.
func (hw *HoltWinters) initFromWarmup() {
	m := hw.cfg.SeasonLength
	var mean float64
	for _, v := range hw.warmup {
		mean += v
	}
	mean /= float64(m)
	hw.level = mean
	hw.trend = 0
	if m > 1 {
		// Average pairwise slope across the season as the trend seed.
		hw.trend = (hw.warmup[m-1] - hw.warmup[0]) / float64(m-1)
	}
	for i := 0; i < m; i++ {
		hw.season[i] = hw.warmup[i] - mean
	}
	hw.idx = 0
	hw.warmup = nil
}

// Predict implements Predictor: one-step-ahead forecast.
func (hw *HoltWinters) Predict() float64 {
	m := hw.cfg.SeasonLength
	if m == 0 {
		if hw.n == 0 {
			return 0
		}
		return hw.level + hw.trend
	}
	if hw.n < m {
		// Still warming up: last value is the best available.
		if len(hw.warmup) == 0 {
			return 0
		}
		return hw.warmup[len(hw.warmup)-1]
	}
	return hw.level + hw.trend + hw.season[hw.idx]
}

// Errors tracks prediction accuracy online; the evaluation reports MAPE
// per scheme to connect prediction quality to assignment quality.
type Errors struct {
	n          int
	sumAbs     float64
	sumAbsPct  float64
	sumSquared float64
}

// Record notes a (predicted, actual) pair.
func (e *Errors) Record(predicted, actual float64) {
	err := predicted - actual
	e.n++
	e.sumAbs += math.Abs(err)
	e.sumSquared += err * err
	if actual != 0 {
		e.sumAbsPct += math.Abs(err / actual)
	}
}

// N returns the number of recorded pairs.
func (e *Errors) N() int { return e.n }

// MAE returns the mean absolute error.
func (e *Errors) MAE() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sumAbs / float64(e.n)
}

// RMSE returns the root mean squared error.
func (e *Errors) RMSE() float64 {
	if e.n == 0 {
		return 0
	}
	return math.Sqrt(e.sumSquared / float64(e.n))
}

// MAPE returns the mean absolute percentage error (over nonzero actuals).
func (e *Errors) MAPE() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sumAbsPct / float64(e.n)
}
