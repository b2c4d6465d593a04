// Package forecast implements the resource-performance forecasters the
// adaptivity engine consumes. The battery mirrors the Network Weather
// Service approach: run several cheap predictors in parallel, track
// each one's one-step-ahead error, and at any instant trust the one
// that has been most accurate recently.
package forecast

import (
	"math"
	"sort"

	"gridpipe/internal/stats"
)

// Forecaster consumes a series of measurements one at a time and
// predicts the next value. Predict returns NaN until the forecaster has
// seen enough samples.
type Forecaster interface {
	// Name identifies the forecaster in experiment tables.
	Name() string
	// Observe feeds one measurement.
	Observe(v float64)
	// Predict returns the forecast of the next measurement.
	Predict() float64
}

// LastValue predicts the most recent observation (the persistence
// forecaster; hard to beat on slowly varying load).
type LastValue struct {
	v    float64
	seen bool
}

// NewLastValue returns a persistence forecaster.
func NewLastValue() *LastValue { return &LastValue{} }

// Name implements Forecaster.
func (l *LastValue) Name() string { return "last" }

// Observe implements Forecaster.
func (l *LastValue) Observe(v float64) { l.v, l.seen = v, true }

// Predict implements Forecaster.
func (l *LastValue) Predict() float64 {
	if !l.seen {
		return math.NaN()
	}
	return l.v
}

// RunningMean predicts the mean of all observations so far.
type RunningMean struct {
	o stats.Online
}

// NewRunningMean returns a cumulative-mean forecaster.
func NewRunningMean() *RunningMean { return &RunningMean{} }

// Name implements Forecaster.
func (r *RunningMean) Name() string { return "mean" }

// Observe implements Forecaster.
func (r *RunningMean) Observe(v float64) { r.o.Add(v) }

// Predict implements Forecaster.
func (r *RunningMean) Predict() float64 { return r.o.Mean() }

// SlidingMean predicts the mean of the last w observations.
type SlidingMean struct {
	ring *stats.Ring
	w    int
}

// NewSlidingMean returns a sliding-window mean forecaster of width w.
func NewSlidingMean(w int) *SlidingMean {
	return &SlidingMean{ring: stats.NewRing(w), w: w}
}

// Name implements Forecaster.
func (s *SlidingMean) Name() string { return "swmean" }

// Observe implements Forecaster.
func (s *SlidingMean) Observe(v float64) { s.ring.Add(v) }

// Predict implements Forecaster.
func (s *SlidingMean) Predict() float64 { return s.ring.Mean() }

// SlidingMedian predicts the median of the last w observations; robust
// to the spikes typical of shared-node load measurements.
type SlidingMedian struct {
	ring *stats.Ring
	buf  []float64 // Predict's sorted copy of the window
}

// NewSlidingMedian returns a sliding-window median forecaster of width
// w.
func NewSlidingMedian(w int) *SlidingMedian {
	return &SlidingMedian{ring: stats.NewRing(w)}
}

// Name implements Forecaster.
func (s *SlidingMedian) Name() string { return "swmedian" }

// Observe implements Forecaster.
func (s *SlidingMedian) Observe(v float64) { s.ring.Add(v) }

// Predict implements Forecaster. It sorts a copy of the window held in
// the forecaster, so it allocates nothing once the copy has grown to
// the window.
func (s *SlidingMedian) Predict() float64 {
	vals := s.ring.AppendValues(s.buf[:0])
	s.buf = vals
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return (vals[n/2-1] + vals[n/2]) / 2
}

// ExpSmooth predicts an exponentially smoothed value.
type ExpSmooth struct {
	e *stats.EWMA
}

// NewExpSmooth returns an exponential-smoothing forecaster with factor
// alpha in (0, 1].
func NewExpSmooth(alpha float64) *ExpSmooth {
	return &ExpSmooth{e: stats.NewEWMA(alpha)}
}

// Name implements Forecaster.
func (e *ExpSmooth) Name() string { return "expsmooth" }

// Observe implements Forecaster.
func (e *ExpSmooth) Observe(v float64) { e.e.Add(v) }

// Predict implements Forecaster.
func (e *ExpSmooth) Predict() float64 { return e.e.Value() }

// AR1 fits a first-order autoregressive model x_{t+1} = μ + φ(x_t - μ)
// over a sliding window, capturing the mean reversion of random-walk
// load.
type AR1 struct {
	ring *stats.Ring
	xs   []float64 // Predict's oldest-first copy of the window
}

// NewAR1 returns an AR(1) forecaster fitted over a window of width w
// (w >= 3).
func NewAR1(w int) *AR1 {
	if w < 3 {
		panic("forecast: AR1 window must be >= 3")
	}
	return &AR1{ring: stats.NewRing(w)}
}

// Name implements Forecaster.
func (a *AR1) Name() string { return "ar1" }

// Observe implements Forecaster.
func (a *AR1) Observe(v float64) { a.ring.Add(v) }

// Predict implements Forecaster. It fits over a copy of the window held
// in the forecaster, so it allocates nothing once the copy has grown to
// the window.
func (a *AR1) Predict() float64 {
	xs := a.ring.AppendValues(a.xs[:0])
	a.xs = xs
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n < 3 {
		return xs[n-1]
	}
	mean := stats.Mean(xs)
	var num, den float64
	for i := 0; i+1 < n; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
		den += (xs[i] - mean) * (xs[i] - mean)
	}
	phi := 0.0
	if den > 1e-12 {
		phi = num / den
	}
	// Clamp to the stable region; an explosive fit on a short noisy
	// window would otherwise launch predictions off the chart.
	if phi > 0.999 {
		phi = 0.999
	}
	if phi < -0.999 {
		phi = -0.999
	}
	return mean + phi*(xs[n-1]-mean)
}
