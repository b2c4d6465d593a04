package pipeline

// Per-edge granularity: vector validation, bridge detection (only
// edges on every entry→exit path may re-slab), live per-boundary
// actuation, and the equivalence of arbitrary per-edge grain vectors
// with the sequential oracle.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"gridpipe/internal/topo"
)

func edgeIdent(_ context.Context, v any) (any, error) { return v, nil }

func chain2(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(
		Stage{Name: "a", Fn: edgeIdent, Replicas: 2, Buffer: 8},
		Stage{Name: "b", Fn: edgeIdent, Replicas: 2, Buffer: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnableBatchEdgesValidation(t *testing.T) {
	// Wrong vector length: a 2-stage chain has 1 edge → wants 2 grains.
	if err := chain2(t).EnableBatchEdges([]int{4}, 0); err == nil {
		t.Fatal("short grain vector should fail")
	}
	if err := chain2(t).EnableBatchEdges([]int{4, 8, 16}, 0); err == nil {
		t.Fatal("long grain vector should fail")
	}
	// Grains below 1.
	if err := chain2(t).EnableBatchEdges([]int{4, 0}, 0); err == nil {
		t.Fatal("grain 0 should fail")
	}
	// After Run.
	p := chain2(t)
	in := make(chan any)
	close(in)
	out, errs := p.Run(context.Background(), in)
	for range out {
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := p.EnableBatchEdges([]int{4, 8}, 0); err == nil {
		t.Fatal("EnableBatchEdges after Run should fail")
	}
	if err := p.EnableBatch(4, 0); err == nil {
		t.Fatal("EnableBatch after Run should fail")
	}
}

// diamond builds the 4-stage split/merge graph 0→{1,2}→3 in which no
// edge is a bridge: removing any one edge leaves entry connected to
// exit through the other branch.
func diamond(t *testing.T) *Pipeline {
	t.Helper()
	stages := []Stage{
		{Name: "s0", Fn: edgeIdent, Replicas: 1, Buffer: 4},
		{Name: "s1", Fn: edgeIdent, Replicas: 1, Buffer: 4},
		{Name: "s2", Fn: edgeIdent, Replicas: 1, Buffer: 4},
		{Name: "s3", Fn: edgeIdent, Replicas: 1, Buffer: 4},
	}
	edges := []topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}}
	p, err := NewGraph(stages, edges)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnableBatchEdgesBridgesOnly(t *testing.T) {
	// On the diamond every edge is a non-bridge: a uniform vector is
	// the only legal one, and no extra boundary becomes adjustable.
	p := diamond(t)
	if err := p.EnableBatchEdges([]int{4, 4, 4, 4, 4}, 0); err != nil {
		t.Fatal(err)
	}
	if nb := p.GrainBoundaries(); nb != 1 {
		t.Fatalf("diamond GrainBoundaries = %d, want 1 (no bridges)", nb)
	}
	// A non-uniform vector on a non-bridge edge must be rejected: it
	// would misalign the zip at the merge.
	if err := diamond(t).EnableBatchEdges([]int{4, 8, 4, 4, 4}, 0); err == nil {
		t.Fatal("re-slabbing a non-bridge edge should fail")
	}

	// On a chain every edge is a bridge: the whole vector is live.
	c, err := New(
		Stage{Name: "a", Fn: edgeIdent, Replicas: 1, Buffer: 4},
		Stage{Name: "b", Fn: edgeIdent, Replicas: 1, Buffer: 4},
		Stage{Name: "c", Fn: edgeIdent, Replicas: 1, Buffer: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableBatchEdges([]int{2, 4, 8}, 0); err != nil {
		t.Fatal(err)
	}
	if nb := c.GrainBoundaries(); nb != 3 {
		t.Fatalf("chain GrainBoundaries = %d, want 3", nb)
	}
	// Boundary 0 is the head, boundary 1+k the chain's edge k; past the
	// last there is none.
	for b, want := range []int{2, 4, 8, 1} {
		if g := c.GrainAt(b); g != want {
			t.Fatalf("GrainAt(%d) = %d, want %d", b, g, want)
		}
	}
}

func TestEnableBatchEdgesLiveSetGrainAt(t *testing.T) {
	p := chain2(t)
	if err := p.EnableBatchEdges([]int{4, 16}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const items = 5000
	in := make(chan any, 64)
	out, errs := p.Run(context.Background(), in)
	go func() {
		for i := 0; i < items; i++ {
			in <- i
			if i == items/3 {
				if err := p.SetGrainAt(0, 8); err != nil {
					t.Errorf("SetGrainAt(0): %v", err)
				}
				if err := p.SetGrainAt(1, 2); err != nil {
					t.Errorf("SetGrainAt(1): %v", err)
				}
			}
		}
		close(in)
	}()
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("output %d: got %v (reordered across a live regrain)", seen, v)
		}
		seen++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != items {
		t.Fatalf("lost items: %d of %d", seen, items)
	}
	if g0, g1 := p.GrainAt(0), p.GrainAt(1); g0 != 8 || g1 != 2 {
		t.Fatalf("grains after SetGrainAt = [%d %d], want [8 2]", g0, g1)
	}
	// Out-of-range boundaries and sub-1 grains are rejected.
	if err := p.SetGrainAt(2, 4); err == nil {
		t.Fatal("SetGrainAt on boundary 2 of 2 should fail")
	}
	if err := p.SetGrainAt(0, 0); err == nil {
		t.Fatal("SetGrainAt grain 0 should fail")
	}
}

// TestEdgeGrainsMatchUnbatchedProperty: random chains under random
// per-edge grain vectors deliver exactly the sequential oracle's
// ordered output — re-slabbing at bridges changes when items cross,
// never what arrives.
func TestEdgeGrainsMatchUnbatchedProperty(t *testing.T) {
	watchGoroutines(t)
	r := rand.New(rand.NewSource(23))
	const items = 300
	ladder := []int{1, 2, 3, 7, 16, 64}
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(4)
		stages := make([]Stage, n)
		for i := range stages {
			stages[i] = Stage{
				Name:     "s",
				Fn:       propStageFn(i),
				Replicas: 1 + r.Intn(3),
				Buffer:   1 + r.Intn(8),
			}
		}
		var edges []topo.Edge
		for i := 0; i+1 < n; i++ {
			edges = append(edges, topo.Edge{From: i, To: i + 1})
		}
		grains := make([]int, n)
		for i := range grains {
			grains[i] = ladder[r.Intn(len(ladder))]
		}
		want := make([]int, items)
		for i := range want {
			want[i] = propExpected(stages, edges, i)
		}
		inputs := make([]any, items)
		for i := range inputs {
			inputs[i] = i
		}
		p, err := NewGraph(stages, edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.EnableBatchEdges(grains, time.Millisecond); err != nil {
			t.Fatalf("trial %d grains %v: %v", trial, grains, err)
		}
		got, err := p.Process(context.Background(), inputs)
		if err != nil {
			t.Fatalf("trial %d grains %v: %v", trial, grains, err)
		}
		if len(got) != items {
			t.Fatalf("trial %d grains %v: %d outputs for %d inputs", trial, grains, len(got), items)
		}
		for i, v := range got {
			if v.(int) != want[i] {
				t.Fatalf("trial %d grains %v output %d: got %v want %v", trial, grains, i, v, want[i])
			}
		}
	}
}
