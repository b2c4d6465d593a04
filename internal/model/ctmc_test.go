package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCTMCTwoStateBirthDeath(t *testing.T) {
	// 0 -λ-> 1, 1 -µ-> 0: π0 = µ/(λ+µ).
	c := NewCTMC(2)
	lambda, mu := 3.0, 7.0
	c.AddTagged(0, 1, lambda, "")
	c.AddTagged(1, 0, mu, "")
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-mu/(lambda+mu)) > 1e-9 {
		t.Fatalf("pi0 = %v, want %v", pi[0], mu/(lambda+mu))
	}
	if math.Abs(pi[0]+pi[1]-1) > 1e-9 {
		t.Fatal("distribution does not sum to 1")
	}
}

func TestCTMCMM1K(t *testing.T) {
	// M/M/1/K queue with λ=1, µ=2, K=4: π_i ∝ ρ^i, ρ=0.5.
	const K = 4
	lambda, mu := 1.0, 2.0
	c := NewCTMC(K + 1)
	for i := 0; i < K; i++ {
		c.AddTagged(i, i+1, lambda, "arrival")
		c.AddTagged(i+1, i, mu, "departure")
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	norm := 0.0
	for i := 0; i <= K; i++ {
		norm += math.Pow(rho, float64(i))
	}
	for i := 0; i <= K; i++ {
		want := math.Pow(rho, float64(i)) / norm
		if math.Abs(pi[i]-want) > 1e-8 {
			t.Fatalf("pi[%d] = %v, want %v", i, pi[i], want)
		}
	}
	// Flow check: departure rate = µ·P(queue non-empty) = arrival
	// acceptance rate = λ·P(not full).
	dep := c.FlowTag(pi, "departure")
	acc := c.FlowTag(pi, "arrival")
	if math.Abs(dep-acc) > 1e-8 {
		t.Fatalf("flow balance violated: dep=%v acc=%v", dep, acc)
	}
}

func TestCTMCPanics(t *testing.T) {
	c := NewCTMC(2)
	for _, bad := range []func(){
		func() { NewCTMC(0) },
		func() { c.AddTagged(0, 0, 1, "") },
		func() { c.AddTagged(0, 5, 1, "") },
		func() { c.AddTagged(-1, 0, 1, "") },
		func() { c.AddTagged(0, 1, 0, "") },
		func() { c.AddTagged(0, 1, math.NaN(), "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestCTMCNoTransitionsError(t *testing.T) {
	c := NewCTMC(3)
	if _, err := c.SteadyState(); err == nil {
		t.Fatal("expected error for empty chain")
	}
}

func TestFlowTag(t *testing.T) {
	c := NewCTMC(2)
	c.AddTagged(0, 1, 2, "up")
	c.AddTagged(1, 0, 2, "down")
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	up := c.FlowTag(pi, "up")
	down := c.FlowTag(pi, "down")
	if math.Abs(up-1) > 1e-9 || math.Abs(down-1) > 1e-9 {
		t.Fatalf("tagged flows = %v, %v, want 1, 1", up, down)
	}
	if c.FlowTag(pi, "absent") != 0 {
		t.Fatal("unknown tag should have zero flow")
	}
}

func TestSolveTandemSingleStage(t *testing.T) {
	res, err := SolveTandem([]float64{5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-5) > 1e-9 {
		t.Fatalf("single-stage throughput = %v, want 5", res.Throughput)
	}
}

func TestSolveTandemTwoEqualStagesNoBuffer(t *testing.T) {
	// Classic closed form: X = 2µ/3.
	mu := 4.0
	res, err := SolveTandem([]float64{mu, mu}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Throughput-2*mu/3) > 1e-6 {
		t.Fatalf("throughput = %v, want %v", res.Throughput, 2*mu/3)
	}
	if res.States != 3 {
		t.Fatalf("states = %d, want 3", res.States)
	}
}

func TestSolveTandemAsymmetricTwoStages(t *testing.T) {
	// Known closed form for the 0-buffer 2-stage line:
	// X = µ1µ2(µ1+µ2) / (µ1²+µ1µ2+µ2²).
	mu1, mu2 := 2.0, 5.0
	res, err := SolveTandem([]float64{mu1, mu2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := mu1 * mu2 * (mu1 + mu2) / (mu1*mu1 + mu1*mu2 + mu2*mu2)
	if math.Abs(res.Throughput-want) > 1e-6 {
		t.Fatalf("throughput = %v, want %v", res.Throughput, want)
	}
}

func TestSolveTandemBuffersHelp(t *testing.T) {
	mus := []float64{3, 3, 3}
	prev := 0.0
	for buf := 0; buf <= 4; buf++ {
		res, err := SolveTandem(mus, buf)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput < prev-1e-9 {
			t.Fatalf("throughput decreased with more buffer: %v -> %v at buf=%d",
				prev, res.Throughput, buf)
		}
		if res.Throughput > 3+1e-9 {
			t.Fatalf("throughput %v exceeds bottleneck rate", res.Throughput)
		}
		prev = res.Throughput
	}
	// With generous buffers the line should get close to the
	// bottleneck bound.
	res, _ := SolveTandem(mus, 8)
	if res.Throughput < 2.5 {
		t.Fatalf("buffered line too slow: %v", res.Throughput)
	}
}

func TestSolveTandemBottleneckDominates(t *testing.T) {
	// One very slow stage: throughput ≈ its rate, regardless of buffer.
	res, err := SolveTandem([]float64{100, 0.5, 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput > 0.5 || res.Throughput < 0.45 {
		t.Fatalf("throughput = %v, want just under 0.5", res.Throughput)
	}
}

func TestSolveTandemErrors(t *testing.T) {
	if _, err := SolveTandem(nil, 0); err == nil {
		t.Fatal("no stages accepted")
	}
	if _, err := SolveTandem([]float64{1}, -1); err == nil {
		t.Fatal("negative buffer accepted")
	}
	if _, err := SolveTandem([]float64{0}, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
}

// Property: the exact tandem throughput never exceeds the analytic
// bottleneck bound min(µ), and is positive.
func TestSolveTandemBoundedProperty(t *testing.T) {
	f := func(r1, r2, r3 uint8, buf uint8) bool {
		mus := []float64{
			0.5 + float64(r1%40)/4,
			0.5 + float64(r2%40)/4,
			0.5 + float64(r3%40)/4,
		}
		b := int(buf % 3)
		res, err := SolveTandem(mus, b)
		if err != nil {
			return false
		}
		bound := math.Min(mus[0], math.Min(mus[1], mus[2]))
		return res.Throughput > 0 && res.Throughput <= bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
