package pipeline

import (
	"context"
	"testing"
	"time"

	"gridpipe/internal/topo"
)

// fuzzShapes are the stage graphs FuzzEnableBatchEdges draws from, as
// edge lists over stages 0…n-1: chains (every edge a bridge), a diamond
// and a skip edge (none), and a diamond between two trunk edges (the
// trunk's two).
var fuzzShapes = [][]topo.Edge{
	{},
	{{From: 0, To: 1}},
	{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}},
	{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
	{{From: 0, To: 1}, {From: 1, To: 2}, {From: 0, To: 2}},
	{{From: 0, To: 1}, {From: 1, To: 2}, {From: 1, To: 3}, {From: 2, To: 4}, {From: 3, To: 4}, {From: 4, To: 5}},
}

// FuzzEnableBatchEdges feeds arbitrary grain vectors — any length, zero
// and negative entries included — to EnableBatchEdges on a handful of
// stage graphs. It must refuse what a run could not realise with an error
// and leave the pipeline at grain 1, never panic; and what it accepts
// must read back through GrainBoundaries/GrainAt as given (boundary 0 the
// head, then the bridge edges in edge order) and carry a short stream
// through in order.
func FuzzEnableBatchEdges(f *testing.F) {
	// The seed corpus is checked in: testdata/fuzz/FuzzEnableBatchEdges.
	first := func(_ context.Context, v any) (any, error) {
		if parts, ok := v.([]any); ok { // a merge: its parts are equal
			return parts[0], nil
		}
		return v, nil
	}
	f.Fuzz(func(t *testing.T, shape uint8, raw []byte) {
		edges := fuzzShapes[int(shape)%len(fuzzShapes)]
		n := 1
		for _, e := range edges {
			n = max(n, e.To+1)
		}
		stages := make([]Stage, n)
		for i := range stages {
			stages[i] = Stage{Fn: first, Replicas: 1 + i%3, Buffer: 2}
		}
		p, err := NewGraph(stages, edges)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		grains := make([]int, len(raw))
		for i, b := range raw {
			grains[i] = int(int8(b)) % 40 // -39…39
		}
		if err := p.EnableBatchEdges(grains, time.Millisecond); err != nil {
			if nb, g := p.GrainBoundaries(), p.GrainAt(0); nb != 1 || g != 1 {
				t.Fatalf("refused %v (%v) yet left %d boundaries at head grain %d", grains, err, nb, g)
			}
			return
		}
		if len(grains) != 1+len(edges) {
			t.Fatalf("accepted %d grains for %d edges", len(grains), len(edges))
		}
		nb := p.GrainBoundaries()
		if nb != 1+len(p.actBounds) || nb > len(grains) {
			t.Fatalf("%d boundaries for %d bridges of %d edges", nb, len(p.actBounds), len(edges))
		}
		for b := 0; b <= nb; b++ {
			want := 1 // past the last boundary
			switch {
			case b == 0:
				want = grains[0]
			case b < nb:
				want = grains[1+p.actBounds[b-1]]
			}
			if g := p.GrainAt(b); g != want || g < 1 {
				t.Fatalf("GrainAt(%d) = %d, want %d (grains %v, bridges %v)", b, g, want, grains, p.actBounds)
			}
		}
		out, err := p.Process(context.Background(), ints(50))
		if err != nil {
			t.Fatalf("grains %v on edges %v: %v", grains, edges, err)
		}
		for i, v := range out {
			if v.(int) != i {
				t.Fatalf("grains %v on edges %v: output %d is %v", grains, edges, i, v)
			}
		}
	})
}
