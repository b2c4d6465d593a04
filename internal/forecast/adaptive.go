package forecast

import (
	"math"

	"gridpipe/internal/stats"
)

// Adaptive runs a battery of forecasters and predicts with whichever
// currently has the lowest exponentially discounted squared one-step
// error — the NWS "forecaster of forecasters". Its defining property
// (checked in experiment T3) is that on every signal class it is close
// to the best individual member.
type Adaptive struct {
	members []Forecaster
	errs    []*stats.EWMA
	primed  []bool
}

// NewAdaptive returns an adaptive forecaster over the given members.
// errorAlpha controls how fast past accuracy is forgotten (0.1 is a
// reasonable default). It panics with no members.
func NewAdaptive(errorAlpha float64, members ...Forecaster) *Adaptive {
	if len(members) == 0 {
		panic("forecast: NewAdaptive with no members")
	}
	a := &Adaptive{members: members}
	a.errs = make([]*stats.EWMA, len(members))
	a.primed = make([]bool, len(members))
	for i := range a.errs {
		a.errs[i] = stats.NewEWMA(errorAlpha)
	}
	return a
}

// NewDefaultBattery returns an Adaptive over the standard battery used
// throughout the experiments: persistence, cumulative mean, sliding
// mean/median, exponential smoothing, and AR(1).
func NewDefaultBattery() *Adaptive {
	return NewAdaptive(0.1,
		NewLastValue(),
		NewRunningMean(),
		NewSlidingMean(10),
		NewSlidingMedian(10),
		NewExpSmooth(0.3),
		NewAR1(20),
	)
}

// Name implements Forecaster.
func (a *Adaptive) Name() string { return "adaptive" }

// Observe implements Forecaster: each member is first scored on its
// standing prediction of v, then updated with v.
func (a *Adaptive) Observe(v float64) {
	for i, m := range a.members {
		p := m.Predict()
		if !math.IsNaN(p) {
			e := p - v
			a.errs[i].Add(e * e)
			a.primed[i] = true
		}
		m.Observe(v)
	}
}

// bestIndex returns the index of the member with the lowest discounted
// error, or -1 before any member has been scored. Predict and Best
// share this one selection path.
func (a *Adaptive) bestIndex() int {
	best := -1
	bestErr := math.Inf(1)
	for i := range a.members {
		if !a.primed[i] {
			continue
		}
		if e := a.errs[i].Value(); e < bestErr {
			bestErr = e
			best = i
		}
	}
	return best
}

// Predict implements Forecaster.
func (a *Adaptive) Predict() float64 {
	best := a.bestIndex()
	if best < 0 {
		// No member has been scored yet; fall back to any member that
		// can predict at all.
		for _, m := range a.members {
			if p := m.Predict(); !math.IsNaN(p) {
				return p
			}
		}
		return math.NaN()
	}
	return a.members[best].Predict()
}

// Evaluation is the accuracy record of one forecaster on one signal.
type Evaluation struct {
	Name     string
	MSE, MAE float64
	N        int
}

// Evaluate replays the series through a fresh forecaster built by
// mk and scores its one-step-ahead predictions. The first prediction is
// naturally skipped (nothing observed yet).
func Evaluate(mk func() Forecaster, series []float64) Evaluation {
	f := mk()
	var preds, actuals []float64
	for _, v := range series {
		p := f.Predict()
		if !math.IsNaN(p) {
			preds = append(preds, p)
			actuals = append(actuals, v)
		}
		f.Observe(v)
	}
	return Evaluation{
		Name: f.Name(),
		MSE:  stats.MSE(preds, actuals),
		MAE:  stats.MAE(preds, actuals),
		N:    len(preds),
	}
}
