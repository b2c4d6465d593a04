package conc

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// minRate is the figure Apportion maximises: min_i(split_i/weight_i).
func minRate(split []int, weights []float64) float64 {
	m := math.Inf(1)
	for i, r := range split {
		m = min(m, float64(r)/weights[i])
	}
	return m
}

// bestMinRate is the largest min(r/w) over every split of total into
// len(weights) parts of at least one, found by enumerating them all.
func bestMinRate(weights []float64, total int) float64 {
	split := make([]int, len(weights))
	var walk func(i, left int) float64
	walk = func(i, left int) float64 {
		if i == len(split)-1 {
			split[i] = left
			return minRate(split, weights)
		}
		best := math.Inf(-1)
		for r := 1; r <= left-(len(split)-1-i); r++ {
			split[i] = r
			best = max(best, walk(i+1, left-r))
		}
		return best
	}
	return walk(0, total)
}

// TestApportionIsOptimal checks the split against brute force: over
// random positive weights (ties included) at every entry count up to 4
// and every total up to 12, its min(r/w) equals the best any split
// reaches. The sum is max(total, n) and no entry gets fewer than one
// worker.
func TestApportionIsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var dst []int
	for n := 1; n <= 4; n++ {
		for total := 0; total <= 12; total++ {
			for trial := 0; trial < 40; trial++ {
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
				dst = Apportion(dst, weights, total)
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
				if got, want := minRate(dst, weights), bestMinRate(weights, max(total, n)); got != want {
					t.Fatalf("Apportion(%v, %d) = %v reaches min(r/w) %v, the best split %v", weights, total, dst, got, want)
				}
			}
		}
	}
}

// TestApportionCases pins the split on equal weights, where ties go to
// the earlier entry, on a budget below the entry count, which is raised
// to it, and on the genome app's stage works at half and all of the
// live harness's default 16-worker budget.
func TestApportionCases(t *testing.T) {
	genome := []float64{0.02, 0.35, 0.05}
	for _, c := range []struct {
		weights []float64
		total   int
		want    []int
	}{
		{[]float64{0.1, 0.1, 0.1}, 4, []int{2, 1, 1}},
		{[]float64{0.1, 0.1, 0.1}, 1, []int{1, 1, 1}},
		{genome, 8, []int{1, 6, 1}},
		{genome, 16, []int{1, 13, 2}},
	} {
		if got := Apportion(nil, c.weights, c.total); !slices.Equal(got, c.want) {
			t.Errorf("Apportion(%v, %d) = %v, want %v", c.weights, c.total, got, c.want)
		}
	}
}
