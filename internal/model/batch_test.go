package model

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
)

// A zero-valued batch spec (grain 0 or 1, no overheads) must
// take the legacy arithmetic paths exactly: same throughput, busy vector, link
// bound, and latency bit for bit.
func TestPredictUnbatchedBitIdentical(t *testing.T) {
	g := testGrid(t, 1, 0.5, 2)
	spec := Balanced(3, 0.1, 4096)
	base, err := Predict(g, spec, OneToOne(3), []float64{0.2, 0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, grain := range []int{0, 1} {
		got, err := Predict(g, withGrain(spec, grain), OneToOne(3), []float64{0.2, 0, 0.1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Throughput != base.Throughput || got.LinkBound != base.LinkBound ||
			got.Latency != base.Latency || got.BottleneckNode != base.BottleneckNode {
			t.Fatalf("grain %d: prediction diverged from legacy: %+v vs %+v", grain, got, base)
		}
		for n := range got.NodeBusy {
			if got.NodeBusy[n] != base.NodeBusy[n] {
				t.Fatalf("grain %d: busy[%d] = %v, want %v", grain, n, got.NodeBusy[n], base.NodeBusy[n])
			}
		}
	}
}

// Per-batch overhead h charged as h/grain per item: larger grains
// amortize it away and throughput approaches the overhead-free rate.
func TestPredictGrainAmortizesOverhead(t *testing.T) {
	g := testGrid(t, 1, 1, 1)
	spec := Balanced(3, 0.01, 0)
	spec.BatchOverheads = []float64{0.09, 0.09, 0.09} // 9× the per-item work

	// Grain 1 with overhead live: each item pays work + h = 0.1 s.
	p1, err := Predict(g, withGrain(spec, 1), OneToOne(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p1.Throughput-10) > 1e-9 {
		t.Fatalf("grain-1 throughput = %v, want 10", p1.Throughput)
	}
	// Grain 9: work + h/9 = 0.02 s per item → 50 items/s.
	p9, err := Predict(g, withGrain(spec, 9), OneToOne(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p9.Throughput-50) > 1e-9 {
		t.Fatalf("grain-9 throughput = %v, want 50", p9.Throughput)
	}
	// Monotone towards (but never past) the overhead-free bound.
	if !(p9.Throughput > p1.Throughput) {
		t.Fatal("larger grain should raise throughput under fixed overhead")
	}
	// Never past the overhead-free ceiling.
	spec.BatchOverheads = nil
	free, err := Predict(g, spec, OneToOne(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p9.Throughput >= free.Throughput {
		t.Fatalf("amortized rate %v should stay below overhead-free %v", p9.Throughput, free.Throughput)
	}
}

// Batched link transfers pay the link latency once per batch: at grain
// g the per-item link charge is bytes/bw + Latency/g.
func TestPredictBatchLinkLatency(t *testing.T) {
	link := grid.Link{Latency: 1e-3, Bandwidth: 1e9}
	g, err := grid.Homogeneous(2, 1, link)
	if err != nil {
		t.Fatal(err)
	}
	spec := Balanced(2, 1e-6, 1000) // 1000 B per hop, near-zero work
	spec.Grain = 10
	p, err := Predict(g, spec, OneToOne(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLink := 1 / (1000/1e9 + 1e-3/10)
	if math.Abs(p.LinkBound-wantLink)/wantLink > 1e-9 {
		t.Fatalf("link bound = %v, want %v", p.LinkBound, wantLink)
	}
	// Raising the grain weakens the latency term and raises the bound.
	p2, err := Predict(g, withGrain(spec, 100), OneToOne(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !(p2.LinkBound > p.LinkBound) {
		t.Fatalf("grain 100 bound %v should beat grain 10 bound %v", p2.LinkBound, p.LinkBound)
	}
}

func TestSpecBatchValidation(t *testing.T) {
	spec := Balanced(2, 0.1, 0)
	spec.BatchOverheads = []float64{0, -1}
	if err := spec.Validate(); err == nil {
		t.Fatal("negative batch overhead should fail validation")
	}
	spec.BatchOverheads = nil
	spec.Grain = -2
	if err := spec.Validate(); err == nil {
		t.Fatal("negative grain should fail validation")
	}
	spec.Grain = 0
	spec.BatchOverheads = []float64{0}
	if err := spec.Validate(); err == nil {
		t.Fatal("batch-overhead vector shorter than the stage count should fail validation")
	}
}

// withGrain returns a copy of spec batched at grain g.
func withGrain(spec PipelineSpec, g int) PipelineSpec {
	spec.Grain = g
	return spec
}

// TestUniformGrainPinned pins, bit for bit, the predictions a
// pipeline-wide grain and overhead have given since the model's first
// batch-aware release: every case above must reproduce the same
// Throughput, Latency and bottleneck exactly.
func TestUniformGrainPinned(t *testing.T) {
	link := grid.Link{Latency: 1e-3, Bandwidth: 1e9}
	linkGrid, err := grid.Homogeneous(2, 1, link)
	if err != nil {
		t.Fatal(err)
	}
	unbatched := Balanced(3, 0.1, 4096)
	amort := Balanced(3, 0.01, 0)
	amort.BatchOverheads = []float64{0.09, 0.09, 0.09}
	linked := Balanced(2, 1e-6, 1000)
	cases := []struct {
		name       string
		g          *grid.Grid
		spec       PipelineSpec
		loads      []float64
		tp, lat    uint64
		bottleneck grid.NodeID
	}{
		{"unbatched grain 0", testGrid(t, 1, 0.5, 2), withGrain(unbatched, 0), []float64{0.2, 0, 0.1},
			0x4014000000000000, 0x3fd8618c4c04dea2, 1},
		{"unbatched grain 1", testGrid(t, 1, 0.5, 2), withGrain(unbatched, 1), []float64{0.2, 0, 0.1},
			0x4014000000000000, 0x3fd8618c4c04dea2, 1},
		{"overhead grain 1", testGrid(t, 1, 1, 1), withGrain(amort, 1), nil,
			0x4024000000000000, 0x3fd3381d7dbf487f, 0},
		{"overhead grain 9", testGrid(t, 1, 1, 1), withGrain(amort, 9), nil,
			0x4049000000000000, 0x3faedfa43fe5c91e, 0},
		{"overhead-free", testGrid(t, 1, 1, 1), Balanced(3, 0.01, 0), nil,
			0x4059000000000000, 0x3f9f06f694467381, 0},
		{"link grain 10", linkGrid, withGrain(linked, 10), nil,
			0x40c3567ebb9079aa, 0x3f606ab14ec204f2, -1},
		{"link grain 100", linkGrid, withGrain(linked, 100), nil,
			0x40f631d1745d1745, 0x3f606ab14ec204f2, -1},
	}
	for _, c := range cases {
		p, err := Predict(c.g, c.spec, OneToOne(c.spec.NumStages()), c.loads)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := math.Float64bits(p.Throughput); got != c.tp {
			t.Errorf("%s: throughput bits %#x (%v), want %#x", c.name, got, p.Throughput, c.tp)
		}
		if got := math.Float64bits(p.Latency); got != c.lat {
			t.Errorf("%s: latency bits %#x (%v), want %#x", c.name, got, p.Latency, c.lat)
		}
		if p.BottleneckNode != c.bottleneck {
			t.Errorf("%s: bottleneck %d, want %d", c.name, p.BottleneckNode, c.bottleneck)
		}
	}
}
