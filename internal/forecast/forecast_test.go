package forecast

import (
	"math"
	"testing"

	"gridpipe/internal/rng"
	"gridpipe/internal/trace"
)

func TestLastValue(t *testing.T) {
	f := NewLastValue()
	if !math.IsNaN(f.Predict()) {
		t.Fatal("unprimed should be NaN")
	}
	f.Observe(3)
	f.Observe(7)
	if f.Predict() != 7 {
		t.Fatalf("Predict = %v", f.Predict())
	}
}

func TestRunningMean(t *testing.T) {
	f := NewRunningMean()
	if !math.IsNaN(f.Predict()) {
		t.Fatal("unprimed should be NaN")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		f.Observe(v)
	}
	if f.Predict() != 2.5 {
		t.Fatalf("Predict = %v", f.Predict())
	}
}

func TestSlidingMean(t *testing.T) {
	f := NewSlidingMean(3)
	for _, v := range []float64{10, 1, 2, 3} {
		f.Observe(v)
	}
	if f.Predict() != 2 {
		t.Fatalf("Predict = %v (window should have dropped 10)", f.Predict())
	}
}

func TestSlidingMedianRobustToSpikes(t *testing.T) {
	f := NewSlidingMedian(5)
	for _, v := range []float64{1, 1, 100, 1, 1} {
		f.Observe(v)
	}
	if f.Predict() != 1 {
		t.Fatalf("median = %v, want 1", f.Predict())
	}
	// Even-sized window averages the middle pair.
	g := NewSlidingMedian(4)
	for _, v := range []float64{1, 2, 3, 4} {
		g.Observe(v)
	}
	if g.Predict() != 2.5 {
		t.Fatalf("even median = %v, want 2.5", g.Predict())
	}
	if !math.IsNaN(NewSlidingMedian(3).Predict()) {
		t.Fatal("empty median should be NaN")
	}
}

func TestExpSmooth(t *testing.T) {
	f := NewExpSmooth(0.5)
	f.Observe(0)
	f.Observe(10)
	if f.Predict() != 5 {
		t.Fatalf("Predict = %v", f.Predict())
	}
}

func TestAR1OnMeanRevertingSignal(t *testing.T) {
	// x_{t+1} = 0.5 + 0.8(x_t - 0.5): AR1 should learn phi≈0.8 and beat
	// persistence on the next step after a deviation.
	f := NewAR1(50)
	x := 0.9
	for i := 0; i < 100; i++ {
		f.Observe(x)
		x = 0.5 + 0.8*(x-0.5)
	}
	p := f.Predict()
	want := 0.5 + 0.8*( /*last observed*/ 0.5+(0.9-0.5)*math.Pow(0.8, 99)-0.5)
	if math.Abs(p-want) > 0.05 {
		t.Fatalf("AR1 predict = %v, want ~%v", p, want)
	}
}

func TestAR1ShortHistoryFallsBackToLast(t *testing.T) {
	f := NewAR1(10)
	if !math.IsNaN(f.Predict()) {
		t.Fatal("empty AR1 should be NaN")
	}
	f.Observe(4)
	if f.Predict() != 4 {
		t.Fatalf("1-sample AR1 = %v, want 4", f.Predict())
	}
}

func TestAR1ConstantSignalStable(t *testing.T) {
	f := NewAR1(10)
	for i := 0; i < 20; i++ {
		f.Observe(0.5)
	}
	if math.Abs(f.Predict()-0.5) > 1e-9 {
		t.Fatalf("AR1 on constant = %v", f.Predict())
	}
}

func TestAR1PanicsOnTinyWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAR1(2)
}

func TestAdaptivePicksGoodMemberOnConstant(t *testing.T) {
	a := NewDefaultBattery()
	for i := 0; i < 50; i++ {
		a.Observe(0.4)
	}
	if got := a.Predict(); math.Abs(got-0.4) > 1e-6 {
		t.Fatalf("adaptive on constant = %v", got)
	}
	if a.bestIndex() < 0 {
		t.Fatal("a member should be trusted after scoring")
	}
}

func TestAdaptiveTracksStep(t *testing.T) {
	// After a step, persistence adapts instantly while the cumulative
	// mean lags; adaptive must switch away from the stale mean.
	a := NewDefaultBattery()
	for i := 0; i < 50; i++ {
		a.Observe(0.1)
	}
	for i := 0; i < 50; i++ {
		a.Observe(0.9)
	}
	if got := a.Predict(); math.Abs(got-0.9) > 0.1 {
		t.Fatalf("adaptive after step = %v, want ~0.9", got)
	}
}

func TestAdaptiveUnprimed(t *testing.T) {
	a := NewDefaultBattery()
	if !math.IsNaN(a.Predict()) || a.bestIndex() >= 0 {
		t.Fatal("unprimed adaptive should be NaN with no trusted member")
	}
	a.Observe(1)
	// After one observation members can predict but none scored yet;
	// Predict should still return something sensible via fallback.
	if math.IsNaN(a.Predict()) {
		t.Fatal("fallback prediction missing")
	}
}

func TestAdaptivePanicsWithNoMembers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdaptive(0.1)
}

func TestEvaluate(t *testing.T) {
	series := []float64{1, 1, 1, 1, 1}
	ev := Evaluate(func() Forecaster { return NewLastValue() }, series)
	if ev.MSE != 0 || ev.MAE != 0 {
		t.Fatalf("persistence on constant should be perfect: %+v", ev)
	}
	if ev.N != 4 {
		t.Fatalf("N = %d, want 4 (first step unpredictable)", ev.N)
	}
}

// The NWS property: on every signal class, the adaptive forecaster's
// MSE is within a small factor of the best battery member's MSE.
func TestAdaptiveNeverMuchWorseThanBest(t *testing.T) {
	r := rng.New(99)
	signals := map[string][]float64{
		"constant": trace.Sample(trace.Constant(0.4), 0, 300, 300),
		"step":     trace.Sample(trace.NewSteps(0.2, trace.StepChange{T: 150, Load: 0.7}), 0, 300, 300),
		"sine":     trace.Sample(trace.Sine{Base: 0.5, Amp: 0.3, Period: 60}, 0, 300, 300),
		"walk":     trace.Sample(trace.NewRandomWalk(r.Derive(1), 300, 1, 0.4, 0.05, 0.2), 0, 300, 300),
		"burst":    trace.Sample(trace.NewMarkovBurst(r.Derive(2), 300, 1, 0.1, 0.6, 30, 10), 0, 300, 300),
	}
	makers := []func() Forecaster{
		func() Forecaster { return NewLastValue() },
		func() Forecaster { return NewRunningMean() },
		func() Forecaster { return NewSlidingMean(10) },
		func() Forecaster { return NewSlidingMedian(10) },
		func() Forecaster { return NewExpSmooth(0.3) },
		func() Forecaster { return NewAR1(20) },
	}
	for name, sig := range signals {
		best := math.Inf(1)
		for _, mk := range makers {
			if ev := Evaluate(mk, sig); ev.MSE < best {
				best = ev.MSE
			}
		}
		adaptive := Evaluate(func() Forecaster { return NewDefaultBattery() }, sig)
		// Allow a generous factor plus an absolute floor for
		// near-zero-error signals.
		if adaptive.MSE > 3*best+1e-6 {
			t.Errorf("%s: adaptive MSE %v vs best member %v", name, adaptive.MSE, best)
		}
	}
}

func TestForecasterNames(t *testing.T) {
	want := map[string]Forecaster{
		"last":      NewLastValue(),
		"mean":      NewRunningMean(),
		"swmean":    NewSlidingMean(5),
		"swmedian":  NewSlidingMedian(5),
		"expsmooth": NewExpSmooth(0.5),
		"ar1":       NewAR1(5),
		"adaptive":  NewDefaultBattery(),
	}
	for name, f := range want {
		if f.Name() != name {
			t.Errorf("Name() = %q, want %q", f.Name(), name)
		}
	}
}
