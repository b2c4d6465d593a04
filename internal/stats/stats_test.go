package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almostEq(m, 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", m)
	}
	// Sample variance of this classic set is 32/7.
	if v := Variance(xs); !almostEq(v, 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v, want %v", v, 32.0/7.0)
	}
}

func TestEmptyInputsAreNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Variance(nil)) ||
		!math.IsNaN(Max(nil)) || !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty-input statistics should be NaN")
	}
}

func TestVarianceSingleSampleNaN(t *testing.T) {
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("variance of one sample should be NaN")
	}
}

func TestMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Max(xs) != 5 {
		t.Fatalf("max = %v, want 5", Max(xs))
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); !almostEq(got, 5, 1e-12) {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for q out of range")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileUnsortedInput(t *testing.T) {
	if got := Quantile([]float64{5, 1, 3, 2, 4}, 0.5); !almostEq(got, 3, 1e-12) {
		t.Fatalf("median of unsorted = %v, want 3", got)
	}
}

func TestMSEAndMAE(t *testing.T) {
	pred := []float64{1, 2, 3}
	act := []float64{1, 4, 3}
	if got := MSE(pred, act); !almostEq(got, 4.0/3.0, 1e-12) {
		t.Fatalf("MSE = %v", got)
	}
	if got := MAE(pred, act); !almostEq(got, 2.0/3.0, 1e-12) {
		t.Fatalf("MAE = %v", got)
	}
	if !math.IsNaN(MSE([]float64{1}, []float64{1, 2})) || !math.IsNaN(MAE([]float64{1}, []float64{1, 2})) {
		t.Fatal("mismatched lengths should give NaN")
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10); !almostEq(got, 0.1, 1e-12) {
		t.Fatalf("RelErr = %v", got)
	}
	if !math.IsNaN(RelErr(1, 0)) {
		t.Fatal("RelErr with zero want should be NaN")
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	xs := []float64{1.5, 2.5, 2.5, 9, -3, 4.25, 0}
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if !almostEq(o.Mean(), Mean(xs), 1e-12) {
		t.Fatalf("online mean %v vs batch %v", o.Mean(), Mean(xs))
	}
}

func TestOnlineReset(t *testing.T) {
	var o Online
	o.Add(5)
	o.Reset()
	if !math.IsNaN(o.Mean()) {
		t.Fatal("reset did not clear accumulator")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if !math.IsNaN(e.Value()) {
		t.Fatal("EWMA before samples should be NaN")
	}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample should initialise: %v", e.Value())
	}
	e.Add(20)
	if !almostEq(e.Value(), 15, 1e-12) {
		t.Fatalf("EWMA = %v, want 15", e.Value())
	}
}

func TestEWMAPanics(t *testing.T) {
	for _, a := range []float64{0, -1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for alpha=%v", a)
				}
			}()
			NewEWMA(a)
		}()
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	if r.Len() != 0 {
		t.Fatal("fresh ring wrong")
	}
	if !math.IsNaN(r.Mean()) {
		t.Fatal("empty ring should report NaN")
	}
	r.Add(1)
	r.Add(2)
	if got := r.AppendValues(nil); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("AppendValues = %v", got)
	}
	r.Add(3)
	r.Add(4) // evicts 1
	if got := r.AppendValues(nil); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("AppendValues after wrap = %v", got)
	}
	if !almostEq(r.Mean(), 3, 1e-12) {
		t.Fatalf("Mean = %v", r.Mean())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestRingWrapProperty(t *testing.T) {
	f := func(capRaw uint8, n uint8) bool {
		c := int(capRaw%16) + 1
		r := NewRing(c)
		var want []float64
		for i := 0; i < int(n); i++ {
			x := float64(i)
			r.Add(x)
			want = append(want, x)
			if len(want) > c {
				want = want[1:]
			}
		}
		got := r.AppendValues(nil)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
