// Package stats provides the descriptive-statistics toolkit used across
// gridpipe: batch and online means, quantiles, error measures, time
// series, and fixed-width table rendering for the experiment harness.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or NaN when
// fewer than two samples are available.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Max returns the maximum of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// It returns NaN for an empty slice and panics if q is outside [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile computes the type-7 quantile of an already sorted
// slice.
func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// MSE returns the mean squared error between predictions and actuals.
// The slices must have equal non-zero length.
func MSE(pred, actual []float64) float64 {
	if len(pred) != len(actual) || len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		s += d * d
	}
	return s / float64(len(pred))
}

// MAE returns the mean absolute error between predictions and actuals.
func MAE(pred, actual []float64) float64 {
	if len(pred) != len(actual) || len(pred) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range pred {
		s += math.Abs(pred[i] - actual[i])
	}
	return s / float64(len(pred))
}

// RelErr returns |got-want|/|want|, or NaN if want is zero.
func RelErr(got, want float64) float64 {
	if want == 0 {
		return math.NaN()
	}
	return math.Abs(got-want) / math.Abs(want)
}
