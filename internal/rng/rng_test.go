package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds collided %d times in 1000 draws", same)
	}
}

func TestDeriveIndependent(t *testing.T) {
	root := New(7)
	a := root.Derive(0)
	b := root.Derive(1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("derived streams with different labels should differ")
	}
	// Deriving must not consume from the parent.
	p1 := New(7).Uint64()
	root2 := New(7)
	_ = root2.Derive(99)
	if root2.Uint64() != p1 {
		t.Fatal("Derive consumed parent state")
	}
}

func TestDeriveReproducible(t *testing.T) {
	a := New(7).Derive(5)
	b := New(7).Derive(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams not reproducible at %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("value %d never generated in 10000 draws", i)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(9)
	const rate = 2.5
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("exp mean %v, want ~%v", mean, 1/rate)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const mu, sigma = 3.0, 2.0
	sum, sumsq := 0.0, 0.0
	const n = 300000
	for i := 0; i < n; i++ {
		v := r.Normal(mu, sigma)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-mu) > 0.02 {
		t.Fatalf("normal mean %v, want ~%v", mean, mu)
	}
	if math.Abs(math.Sqrt(variance)-sigma) > 0.02 {
		t.Fatalf("normal stddev %v, want ~%v", math.Sqrt(variance), sigma)
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(17)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(0, 1); v <= 0 {
			t.Fatalf("lognormal variate %v not positive", v)
		}
	}
}

func TestParetoMinimum(t *testing.T) {
	r := New(19)
	const shape, scale = 1.5, 2.0
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(shape, scale); v < scale {
			t.Fatalf("pareto variate %v below scale %v", v, scale)
		}
	}
}

func TestParetoMean(t *testing.T) {
	r := New(23)
	// shape > 1 so the mean exists: mean = shape*scale/(shape-1).
	const shape, scale = 3.0, 1.0
	sum := 0.0
	const n = 400000
	for i := 0; i < n; i++ {
		sum += r.Pareto(shape, scale)
	}
	want := shape * scale / (shape - 1)
	if math.Abs(sum/n-want) > 0.02 {
		t.Fatalf("pareto mean %v, want ~%v", sum/n, want)
	}
}

func TestRangeProperty(t *testing.T) {
	r := New(43)
	f := func(a, b float64) bool {
		lo, hi := math.Min(a, b), math.Max(a, b)
		// Skip degenerate inputs and spans so wide that hi-lo
		// overflows; simulation parameters never approach 1e300.
		if !(lo < hi) || math.IsNaN(lo) || math.Abs(lo) > 1e150 || math.Abs(hi) > 1e150 {
			return true
		}
		v := r.Range(lo, hi)
		return v >= lo && v < hi
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Normal(0, 1)
	}
	_ = sink
}

// TestSeedForMatchesDerive pins the keyed-stream contract: a component
// seeded with SeedFor(root, label) produces exactly the stream
// New(root).Derive(label) does, so per-job sub-streams built from
// plain seeds stay independent of draw order anywhere else.
func TestSeedForMatchesDerive(t *testing.T) {
	for _, root := range []uint64{0, 1, 42, 1 << 60} {
		for label := uint64(0); label < 8; label++ {
			a := New(SeedFor(root, label))
			b := New(root).Derive(label)
			for i := 0; i < 16; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("SeedFor(%d,%d) diverged from Derive at draw %d: %x vs %x", root, label, i, x, y)
				}
			}
		}
	}
	// Nearby labels must yield unrelated streams.
	if SeedFor(7, 0) == SeedFor(7, 1) {
		t.Fatal("adjacent labels collided")
	}
	if SeedFor(7, 0) == SeedFor(8, 0) {
		t.Fatal("adjacent roots collided")
	}
}
