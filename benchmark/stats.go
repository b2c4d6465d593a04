package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 read from fewer is one or two outliers, not a distribution.
const minBeyond = 10

// sortedCopy returns the samples in ascending order without touching
// the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile reads the q-quantile (0 ≤ q ≤ 1) of ascending samples by
// nearest rank; it is 0 on an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the 0.5-quantile with the two middle samples averaged on
// an even count (so a median of two reps is their mean).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// supportedQuantile lowers a requested tail quantile until at least
// minBeyond samples lie beyond it, stepping p999 → p99 → p95 → p90 → p50, and
// returns the quantile actually used. With fewer than 2·minBeyond
// samples only the median is supported.
func supportedQuantile(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9} {
		if q > want {
			continue
		}
		if beyond := n - int(math.Ceil(q*float64(n))); beyond >= minBeyond {
			return q
		}
	}
	return 0.5
}

// tail reads the highest supported quantile not above want from
// ascending samples, and reports which one it was.
func tail(sorted []float64, want float64) (value, used float64) {
	used = supportedQuantile(len(sorted), want)
	if used == 0.5 {
		return median(sorted), used
	}
	return quantile(sorted, used), used
}

// iqrShare is the distance between the first and third quartile as a
// share of the median — the spread the regression bounds are judged
// against. Quartiles follow Python's statistics.quantiles(n=4)
// (exclusive method) so the figure matches the driver's.
func iqrShare(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		if pos < 0 {
			pos = 0
		}
		if pos > float64(n-1) {
			pos = float64(n - 1)
		}
		lo := int(math.Floor(pos))
		hi := lo + 1
		if hi > n-1 {
			hi = n - 1
		}
		return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}
