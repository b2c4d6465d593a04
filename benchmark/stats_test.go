package main

import (
	"math"
	"testing"
)

func TestSupportedQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		used float64
	}{
		{1000, 0.99, 0.99}, // exactly 10 beyond p99
		{999, 0.99, 0.95},  // 9 beyond p99: step down
		{200, 0.95, 0.95},  // exactly 10 beyond p95
		{100, 0.99, 0.9},   // exactly 10 beyond p90
		{99, 0.99, 0.5},
		{3, 0.99, 0.5},
		{10_000, 0.999, 0.999},
		{9_999, 0.999, 0.99},
		{250_000, 0.99, 0.99},
		{250_000, 0.5, 0.5},
	} {
		if got := supportedQuantile(c.n, c.want); got != c.used {
			t.Errorf("supportedQuantile(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
}

func TestTailReadsTheSupportedQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, used := tail(xs, 0.99); v != 990 || used != 0.99 {
		t.Errorf("tail(1..1000, p99) = %g at p%g, want 990 at p99", v, used*100)
	}
	if v, used := tail(xs[:5], 0.99); v != 3 || used != 0.5 {
		t.Errorf("tail(1..5, p99) = %g at p%g, want the median 3", v, used*100)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %g, want 5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("p90 of 1..10 = %g, want 9", got)
	}
	if median(nil) != 0 || quantile(nil, 0.5) != 0 {
		t.Error("empty samples must read 0")
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestIQRShareMatchesPythonQuartiles(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := iqrShare([]float64{5}); got != 0 {
		t.Errorf("iqrShare of one sample = %g, want 0", got)
	}
}
