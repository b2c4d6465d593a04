package conc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// apportionBySort is the live controller's former split: floors first,
// then leftovers to the largest remainders in a stable descending sort,
// cycling if a rounding shortfall left more than one round.
func apportionBySort(weights []float64, total int) []int {
	n := len(weights)
	avail := total
	if avail < n {
		avail = n
	}
	extra := avail - n
	weightSum := 0.0
	for _, w := range weights {
		weightSum += w
	}
	type frac struct {
		i int
		f float64
	}
	next := make([]int, n)
	var rem []frac
	assigned := 0
	for i, l := range weights {
		share := float64(extra) * l / weightSum
		w := int(share)
		next[i] = 1 + w
		assigned += w
		rem = append(rem, frac{i: i, f: share - float64(w)})
	}
	sort.SliceStable(rem, func(a, b int) bool { return rem[a].f > rem[b].f })
	for j := 0; assigned < extra; j = (j + 1) % len(rem) {
		next[rem[j].i]++
		assigned++
	}
	return next
}

// apportionByArgmax is the worker budget's former split: floors first,
// then leftovers one at a time to the largest remaining fraction.
func apportionByArgmax(weights []float64, total int) []int {
	n := len(weights)
	weightSum := 0.0
	for _, w := range weights {
		weightSum += w
	}
	extra := total - n
	if extra < 0 {
		extra = 0
	}
	caps := make([]int, n)
	fracs := make([]float64, n)
	assigned := 0
	for i, x := range weights {
		share := float64(extra) * x / weightSum
		w := int(share)
		caps[i] = 1 + w
		fracs[i] = share - float64(w)
		assigned += w
	}
	for assigned < extra {
		best := 0
		for i := 1; i < n; i++ {
			if fracs[i] > fracs[best] {
				best = i
			}
		}
		caps[best]++
		fracs[best] = -1
		assigned++
	}
	return caps
}

// TestApportionMatchesRetiredSplits checks the shared split against both
// loops it replaced, over random positive weights with totals below and
// above the entry count, and its invariants: the sum is max(total, n)
// and no entry gets fewer than one worker.
func TestApportionMatchesRetiredSplits(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var dst []int
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(8)
		weights := make([]float64, n)
		for i := range weights {
			switch r.Intn(3) {
			case 0:
				weights[i] = 1 + float64(r.Intn(3)) // ties
			case 1:
				weights[i] = r.Float64() + 1e-9
			default:
				weights[i] = r.ExpFloat64() * 1e-3
			}
		}
		total := r.Intn(4 * n)
		dst = Apportion(dst, weights, total)
		if want := apportionBySort(weights, total); !slices.Equal(dst, want) {
			t.Fatalf("Apportion(%v, %d) = %v, sort form %v", weights, total, dst, want)
		}
		if want := apportionByArgmax(weights, total); !slices.Equal(dst, want) {
			t.Fatalf("Apportion(%v, %d) = %v, argmax form %v", weights, total, dst, want)
		}
		sum := 0
		for _, k := range dst {
			if k < 1 {
				t.Fatalf("Apportion(%v, %d) = %v: an entry below 1", weights, total, dst)
			}
			sum += k
		}
		if sum != max(total, n) {
			t.Fatalf("Apportion(%v, %d) = %v sums to %d, want %d", weights, total, dst, sum, max(total, n))
		}
	}
}
