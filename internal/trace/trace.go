// Package trace models time-varying background load on grid resources.
//
// A Trace maps virtual time to a background-load fraction in [0, 1):
// the share of a processor consumed by other grid users. The effective
// speed of a node at time t is nominalSpeed * (1 - load(t)). The same
// abstraction describes link quality degradation.
//
// The generators reproduce the load-signal families used to evaluate
// grid-era adaptive systems: constant, step changes (a competing job
// arrives), ramps (gradually filling batch queue), diurnal sine,
// mean-reverting random walk (NWS-like CPU availability measurements),
// and bursty Markov on/off load.
package trace

import (
	"math"
	"sort"

	"gridpipe/internal/rng"
)

// Trace reports background load at a point in virtual time. At must be
// pure for a given trace value: experiments re-read traces at arbitrary
// times. Implementations must return values in [0, MaxLoad].
type Trace interface {
	At(t float64) float64
}

// MaxLoad is the highest background-load fraction a trace may report.
// A node never becomes completely unavailable (the executor would
// divide by zero); 0.98 leaves a 50x worst-case slowdown.
const MaxLoad = 0.98

// clamp bounds a load value into [0, MaxLoad].
func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > MaxLoad {
		return MaxLoad
	}
	return v
}

// Constant is a fixed background load.
type Constant float64

// At implements Trace.
func (c Constant) At(float64) float64 { return clamp(float64(c)) }

// StepChange is one (time, load) breakpoint of a Steps trace.
type StepChange struct {
	T    float64
	Load float64
}

// Steps is a piecewise-constant trace: load is Initial before the first
// breakpoint and then the load of the latest breakpoint at or before t.
type Steps struct {
	Initial float64
	Changes []StepChange // must be sorted by T ascending
}

// NewSteps builds a Steps trace, sorting the breakpoints by time.
func NewSteps(initial float64, changes ...StepChange) *Steps {
	cs := make([]StepChange, len(changes))
	copy(cs, changes)
	sort.Slice(cs, func(i, j int) bool { return cs[i].T < cs[j].T })
	return &Steps{Initial: initial, Changes: cs}
}

// At implements Trace.
func (s *Steps) At(t float64) float64 {
	load := s.Initial
	i := sort.Search(len(s.Changes), func(i int) bool { return s.Changes[i].T > t })
	if i > 0 {
		load = s.Changes[i-1].Load
	}
	return clamp(load)
}

// Ramp rises linearly from From at T0 to To at T1, constant outside.
type Ramp struct {
	T0, T1   float64
	From, To float64
}

// At implements Trace.
func (r Ramp) At(t float64) float64 {
	switch {
	case t <= r.T0:
		return clamp(r.From)
	case t >= r.T1:
		return clamp(r.To)
	default:
		frac := (t - r.T0) / (r.T1 - r.T0)
		return clamp(r.From + frac*(r.To-r.From))
	}
}

// Sine is a sinusoidal (diurnal-style) load: Base + Amp*sin(2πt/Period + Phase),
// clamped to [0, MaxLoad].
type Sine struct {
	Base, Amp float64
	Period    float64
	Phase     float64
}

// At implements Trace.
func (s Sine) At(t float64) float64 {
	if s.Period <= 0 {
		return clamp(s.Base)
	}
	return clamp(s.Base + s.Amp*math.Sin(2*math.Pi*t/s.Period+s.Phase))
}

// Sampled is a trace defined by samples Dt apart from t = 0 with step
// interpolation; it backs the stochastic generators.
type Sampled struct {
	Dt   float64
	Vals []float64
}

// At implements Trace.
func (s *Sampled) At(t float64) float64 {
	if len(s.Vals) == 0 {
		return 0
	}
	i := int(math.Floor(t / s.Dt))
	if i < 0 {
		i = 0
	}
	if i >= len(s.Vals) {
		i = len(s.Vals) - 1
	}
	return clamp(s.Vals[i])
}

// NewRandomWalk generates a mean-reverting random-walk trace (an
// Ornstein-Uhlenbeck discretisation), the closest synthetic analogue of
// NWS CPU-availability measurements: load wanders around mean with
// volatility sigma, pulled back at rate theta per second.
func NewRandomWalk(r *rng.Rand, horizon, dt, mean, sigma, theta float64) *Sampled {
	if dt <= 0 || horizon <= 0 {
		panic("trace: NewRandomWalk with non-positive dt or horizon")
	}
	n := int(math.Ceil(horizon / dt))
	vals := make([]float64, n)
	v := clamp(mean)
	sq := math.Sqrt(dt)
	for i := 0; i < n; i++ {
		v += theta*(mean-v)*dt + sigma*sq*r.Normal(0, 1)
		v = clamp(v)
		vals[i] = v
	}
	return &Sampled{Dt: dt, Vals: vals}
}

// NewMarkovBurst generates an on/off bursty trace: exponential sojourn
// in the off state (load = base) with mean offMean seconds, and in the
// on state (load = base+burst) with mean onMean seconds. It models a
// competing batch job periodically landing on the node.
func NewMarkovBurst(r *rng.Rand, horizon, dt, base, burst, offMean, onMean float64) *Sampled {
	if dt <= 0 || horizon <= 0 || offMean <= 0 || onMean <= 0 {
		panic("trace: NewMarkovBurst with non-positive parameter")
	}
	n := int(math.Ceil(horizon / dt))
	vals := make([]float64, n)
	t := 0.0
	on := false
	next := r.Exp(1 / offMean)
	for i := 0; i < n; i++ {
		for t >= next {
			on = !on
			if on {
				next += r.Exp(1 / onMean)
			} else {
				next += r.Exp(1 / offMean)
			}
		}
		if on {
			vals[i] = clamp(base + burst)
		} else {
			vals[i] = clamp(base)
		}
		t += dt
	}
	return &Sampled{Dt: dt, Vals: vals}
}

// Sum adds component traces (clamped). A diurnal sine plus a random
// walk plus occasional bursts composes a realistic grid node.
type Sum []Trace

// At implements Trace.
func (ts Sum) At(t float64) float64 {
	v := 0.0
	for _, tr := range ts {
		v += tr.At(t)
	}
	return clamp(v)
}

// Sample evaluates tr at n+1 equally spaced instants across [t0, t1]
// and returns the values; forecaster experiments feed on it.
func Sample(tr Trace, t0, t1 float64, n int) []float64 {
	if n <= 0 {
		panic("trace: Sample with non-positive n")
	}
	out := make([]float64, n+1)
	dt := (t1 - t0) / float64(n)
	for i := 0; i <= n; i++ {
		out[i] = tr.At(t0 + float64(i)*dt)
	}
	return out
}
