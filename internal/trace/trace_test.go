package trace

import (
	"math"
	"testing"
	"testing/quick"

	"gridpipe/internal/rng"
)

func TestConstant(t *testing.T) {
	c := Constant(0.3)
	if c.At(0) != 0.3 || c.At(1e9) != 0.3 {
		t.Fatal("constant trace not constant")
	}
	if Constant(2).At(0) != MaxLoad {
		t.Fatal("constant above MaxLoad should clamp")
	}
	if Constant(-1).At(0) != 0 {
		t.Fatal("negative constant should clamp to 0")
	}
}

func TestSteps(t *testing.T) {
	s := NewSteps(0.1,
		StepChange{T: 10, Load: 0.5},
		StepChange{T: 20, Load: 0.2},
	)
	cases := []struct{ t, want float64 }{
		{0, 0.1}, {9.99, 0.1}, {10, 0.5}, {15, 0.5}, {20, 0.2}, {100, 0.2},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestStepsSortsBreakpoints(t *testing.T) {
	s := NewSteps(0, StepChange{T: 20, Load: 0.4}, StepChange{T: 10, Load: 0.8})
	if got := s.At(15); got != 0.8 {
		t.Fatalf("At(15) = %v, want 0.8 (breakpoints must be sorted)", got)
	}
}

func TestRamp(t *testing.T) {
	r := Ramp{T0: 10, T1: 20, From: 0, To: 0.8}
	if r.At(0) != 0 || r.At(10) != 0 {
		t.Fatal("ramp before T0 wrong")
	}
	if got := r.At(15); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("mid-ramp = %v, want 0.4", got)
	}
	if r.At(20) != 0.8 || r.At(1e6) != 0.8 {
		t.Fatal("ramp after T1 wrong")
	}
}

func TestSine(t *testing.T) {
	s := Sine{Base: 0.5, Amp: 0.3, Period: 100}
	if got := s.At(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("At(0) = %v, want 0.5", got)
	}
	if got := s.At(25); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("At(quarter period) = %v, want 0.8", got)
	}
	if got := s.At(75); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("At(three quarters) = %v, want 0.2", got)
	}
	// Zero period degrades gracefully to the base.
	if got := (Sine{Base: 0.4, Amp: 0.2}).At(5); got != 0.4 {
		t.Fatalf("zero-period sine = %v", got)
	}
}

func TestSineClamps(t *testing.T) {
	s := Sine{Base: 0.9, Amp: 0.5, Period: 10}
	for i := 0; i <= 100; i++ {
		v := s.At(float64(i) / 10)
		if v < 0 || v > MaxLoad {
			t.Fatalf("sine escaped bounds: %v", v)
		}
	}
}

func TestSampledStepInterpolation(t *testing.T) {
	s := &Sampled{Dt: 1, Vals: []float64{0.1, 0.2, 0.3}}
	cases := []struct{ t, want float64 }{
		{-5, 0.1}, {0, 0.1}, {0.99, 0.1}, {1, 0.2}, {2.5, 0.3}, {99, 0.3},
	}
	for _, c := range cases {
		if got := s.At(c.t); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if (&Sampled{}).At(5) != 0 {
		t.Fatal("empty sampled trace should be 0")
	}
}

func TestRandomWalkBoundsAndMean(t *testing.T) {
	r := rng.New(1)
	s := NewRandomWalk(r, 1000, 0.5, 0.4, 0.05, 0.5)
	sum := 0.0
	for _, v := range s.Vals {
		if v < 0 || v > MaxLoad {
			t.Fatalf("walk escaped bounds: %v", v)
		}
		sum += v
	}
	mean := sum / float64(len(s.Vals))
	if math.Abs(mean-0.4) > 0.1 {
		t.Fatalf("walk mean %v too far from 0.4", mean)
	}
}

func TestRandomWalkDeterministic(t *testing.T) {
	a := NewRandomWalk(rng.New(7), 100, 1, 0.3, 0.1, 0.2)
	b := NewRandomWalk(rng.New(7), 100, 1, 0.3, 0.1, 0.2)
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			t.Fatalf("walk not deterministic at %d", i)
		}
	}
}

func TestMarkovBurstLevels(t *testing.T) {
	r := rng.New(3)
	s := NewMarkovBurst(r, 2000, 1, 0.1, 0.6, 50, 20)
	onCount, offCount := 0, 0
	for _, v := range s.Vals {
		switch v {
		case 0.1:
			offCount++
		case 0.7:
			onCount++
		default:
			t.Fatalf("unexpected level %v", v)
		}
	}
	if onCount == 0 || offCount == 0 {
		t.Fatalf("burst trace never switched: on=%d off=%d", onCount, offCount)
	}
	// Off mean 50 vs on mean 20 → roughly 5/7 of time off.
	frac := float64(offCount) / float64(onCount+offCount)
	if frac < 0.5 || frac > 0.9 {
		t.Fatalf("off fraction %v implausible", frac)
	}
}

func TestSum(t *testing.T) {
	if got := (Sum{Constant(0.3), Constant(0.4)}).At(0); math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("Sum = %v", got)
	}
	if got := (Sum{Constant(0.9), Constant(0.9)}).At(0); got != MaxLoad {
		t.Fatalf("Sum should clamp: %v", got)
	}
}

func TestSample(t *testing.T) {
	vals := Sample(Ramp{T0: 0, T1: 10, From: 0, To: 0.5}, 0, 10, 10)
	if len(vals) != 11 {
		t.Fatalf("len = %d", len(vals))
	}
	if vals[0] != 0 || math.Abs(vals[5]-0.25) > 1e-12 || vals[10] != 0.5 {
		t.Fatalf("samples wrong: %v", vals)
	}
}

func TestTraceBoundsProperty(t *testing.T) {
	r := rng.New(11)
	walk := NewRandomWalk(r.Derive(0), 500, 1, 0.5, 0.2, 0.1)
	burst := NewMarkovBurst(r.Derive(1), 500, 1, 0.2, 0.7, 30, 30)
	traces := []Trace{
		Constant(0.5),
		NewSteps(0.2, StepChange{T: 50, Load: 0.9}),
		Ramp{T0: 0, T1: 100, From: 0, To: 0.9},
		Sine{Base: 0.5, Amp: 0.6, Period: 60},
		walk,
		burst,
		Sum{walk, burst},
	}
	f := func(tRaw float64) bool {
		tt := math.Mod(math.Abs(tRaw), 500)
		if math.IsNaN(tt) {
			return true
		}
		for _, tr := range traces {
			v := tr.At(tt)
			if v < 0 || v > MaxLoad || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
