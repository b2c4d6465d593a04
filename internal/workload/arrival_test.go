package workload

import (
	"math"
	"testing"
)

// allProcesses builds one instance of every arrival family at the
// given mean rate and seed.
func allProcesses(rate float64, seed uint64) []ArrivalProcess {
	return []ArrivalProcess{
		NewPoisson(rate, seed),
		NewUniform(rate, 0.5, seed),
		NewBursty(rate/2, 2*rate, 20, 10, seed),
		NewDiurnal(rate, 0.6*rate, 120, 0, seed),
		NewPareto(rate, 1.5, seed),
	}
}

// Every process's empirical mean rate must land within tolerance of
// its configured Rate over a long stream. The heavy-tailed Pareto
// converges slowly (stable-law tails), so it gets a looser band.
func TestArrivalEmpiricalMeanRate(t *testing.T) {
	const rate = 2.0
	for _, p := range allProcesses(rate, 7) {
		const n = 200000
		total := 0.0
		for i := 0; i < n; i++ {
			gap := p.Next()
			if gap < 0 || math.IsNaN(gap) {
				t.Fatalf("%s: invalid gap %v", p.Name(), gap)
			}
			total += gap
		}
		if want := p.Rate(); math.Abs(want-rate) > 1e-9 {
			t.Errorf("%s: Rate() = %v, configured %v", p.Name(), want, rate)
		}
		empirical := float64(n) / total
		tol := 0.05
		if p.Name() == "pareto" {
			tol = 0.25
		}
		if math.Abs(empirical-rate)/rate > tol {
			t.Errorf("%s: empirical rate %v, want %v ± %.0f%%", p.Name(), empirical, rate, 100*tol)
		}
	}
}

// Same-seed streams must be bit-identical, across instances and across
// Reset.
func TestArrivalSameSeedIdentical(t *testing.T) {
	a := allProcesses(1.5, 99)
	b := allProcesses(1.5, 99)
	for i := range a {
		var gaps [500]float64
		for j := range gaps {
			gaps[j] = a[i].Next()
			if got := b[i].Next(); got != gaps[j] {
				t.Fatalf("%s: same-seed instances diverge at draw %d: %v vs %v", a[i].Name(), j, gaps[j], got)
			}
		}
		a[i].Reset()
		for j := range gaps {
			if got := a[i].Next(); got != gaps[j] {
				t.Fatalf("%s: Reset does not replay the stream at draw %d: %v vs %v", a[i].Name(), j, gaps[j], got)
			}
		}
	}
}

func TestArrivalDifferentSeedsDiverge(t *testing.T) {
	a := allProcesses(1.5, 1)
	b := allProcesses(1.5, 2)
	for i := range a {
		same := true
		for j := 0; j < 20; j++ {
			if a[i].Next() != b[i].Next() {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 produce the same stream", a[i].Name())
		}
	}
}

// Next must be allocation-free: the generator runs inside benchmark
// and simulation hot loops.
func TestArrivalNextAllocationFree(t *testing.T) {
	for _, p := range allProcesses(3, 5) {
		allocs := testing.AllocsPerRun(200, func() { p.Next() })
		if allocs != 0 {
			t.Errorf("%s: Next allocates %v per call", p.Name(), allocs)
		}
	}
}

func TestNewArrivalFactory(t *testing.T) {
	for _, name := range ArrivalFamilies() {
		p, err := NewArrival(name, 2, 1)
		if err != nil {
			t.Fatalf("NewArrival(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("NewArrival(%q).Name() = %q", name, p.Name())
		}
		if math.Abs(p.Rate()-2) > 1e-9 {
			t.Errorf("%s: factory rate %v, want 2", name, p.Rate())
		}
	}
	if _, err := NewArrival("bogus", 1, 1); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := NewArrival("poisson", 0, 1); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestArrivalConstructorValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"poisson rate", func() { NewPoisson(0, 1) }},
		{"uniform rate", func() { NewUniform(-1, 0.5, 1) }},
		{"uniform spread", func() { NewUniform(1, 1, 1) }},
		{"bursty burst", func() { NewBursty(1, 0, 10, 10, 1) }},
		{"bursty sojourn", func() { NewBursty(1, 2, 0, 10, 1) }},
		{"diurnal amp", func() { NewDiurnal(1, 2, 120, 0, 1) }},
		{"pareto shape", func() { NewPareto(1, 1, 1) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid parameter accepted", c.name)
				}
			}()
			c.fn()
		}()
	}
}

// The modulated processes must actually modulate: a bursty stream's
// gap distribution should be far more variable than Poisson at the
// same mean rate, and a diurnal stream's windowed rate should swing
// with the configured period.
func TestBurstyIsBurstier(t *testing.T) {
	cv2 := func(p ArrivalProcess, n int) float64 {
		var sum, sumsq float64
		for i := 0; i < n; i++ {
			g := p.Next()
			sum += g
			sumsq += g * g
		}
		mean := sum / float64(n)
		return (sumsq/float64(n) - mean*mean) / (mean * mean)
	}
	const n = 100000
	pois := cv2(NewPoisson(1, 3), n)
	burst := cv2(NewBursty(0.2, 4, 30, 10, 3), n)
	if burst < 1.5*pois {
		t.Errorf("bursty gap CV² %v not clearly above poisson %v", burst, pois)
	}
}

func TestDiurnalModulation(t *testing.T) {
	// Rate 2 ± 1.8 with a 100 s period: count arrivals in the high and
	// low half-cycles over many periods and expect a clear imbalance.
	d := NewDiurnal(2, 1.8, 100, 0, 11)
	t1, high, low := 0.0, 0, 0
	for t1 < 20000 {
		t1 += d.Next()
		phase := math.Mod(t1, 100)
		if phase < 50 {
			high++ // sin > 0: above-base rate
		} else {
			low++
		}
	}
	if float64(high) < 1.5*float64(low) {
		t.Errorf("diurnal high-phase arrivals %d not clearly above low-phase %d", high, low)
	}
}
