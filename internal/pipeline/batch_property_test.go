package pipeline

// The batching equivalence property: for any stage graph, any grain
// (1, the slab of one, included), and any cancellation point, the
// pipeline delivers exactly the sequential reference evaluator's
// ordered output — the grain may only change *when* items cross
// boundaries, never *what* comes out or in which order.
// Random topologies (chains with random extra split/merge edges),
// random replica counts and buffers, a grain ladder spanning
// non-divisor sizes, and mid-stream cancels all run under -race in CI.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gridpipe/internal/topo"
)

// propHash folds an item (int at the head, []any at merges) into an
// int; the per-stage function is a keyed version of it so every stage
// and every merge ordering leaves a distinct fingerprint in the
// output.
func propHash(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case []any:
		h := 7
		for _, part := range x {
			h = h*1000003 + propHash(part)
		}
		return h
	default:
		panic(fmt.Sprintf("unexpected item type %T", v))
	}
}

func propStageFn(id int) Func {
	return func(_ context.Context, v any) (any, error) {
		return id*31 + propHash(v)*3, nil
	}
}

// randTopology builds a valid random stage graph: a chain backbone
// (guaranteeing the single-entry/single-exit path contract) plus
// random extra forward edges that create splits and merges.
func randTopology(r *rand.Rand) ([]Stage, []topo.Edge) {
	n := 2 + r.Intn(5) // 2..6 stages
	stages := make([]Stage, n)
	for i := range stages {
		stages[i] = Stage{
			Name:     fmt.Sprintf("s%d", i),
			Fn:       propStageFn(i),
			Replicas: 1 + r.Intn(4),
			Buffer:   1 + r.Intn(8),
		}
	}
	var edges []topo.Edge
	for i := 0; i+1 < n; i++ {
		edges = append(edges, topo.Edge{From: i, To: i + 1})
	}
	extra := r.Intn(n)
	for k := 0; k < extra; k++ {
		from := r.Intn(n - 1)
		to := from + 1 + r.Intn(n-1-from)
		dup := false
		for _, e := range edges {
			if e.From == from && e.To == to {
				dup = true
				break
			}
		}
		if !dup {
			edges = append(edges, topo.Edge{From: from, To: to})
		}
	}
	return stages, edges
}

// propExpected evaluates the graph per item in plain sequential code:
// the ordered-output oracle every run must match. Merge parts are
// assembled in edge-list order, the order the runtime wires them.
func propExpected(stages []Stage, edges []topo.Edge, input int) int {
	n := len(stages)
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		var in any
		if i == 0 {
			in = input
		} else {
			var parts []any
			for _, e := range edges {
				if e.To == i {
					parts = append(parts, vals[e.From])
				}
			}
			if len(parts) == 1 {
				in = parts[0]
			} else {
				in = parts
			}
		}
		out, err := stages[i].Fn(context.Background(), in)
		if err != nil {
			panic(err)
		}
		vals[i] = out
	}
	return vals[n-1].(int)
}

// build constructs a fresh pipeline over shared stage definitions
// (pipelines are single-use; each run needs its own).
func propBuild(t *testing.T, stages []Stage, edges []topo.Edge, grain int) *Pipeline {
	t.Helper()
	p, err := NewGraph(stages, edges)
	if err != nil {
		t.Fatalf("building topology: %v", err)
	}
	if err := p.EnableBatch(grain, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBatchedMatchesUnbatchedProperty(t *testing.T) {
	watchGoroutines(t)
	r := rand.New(rand.NewSource(99))
	grains := []int{1, 2, 3, 7, 16, 64}
	const items = 300
	for trial := 0; trial < 12; trial++ {
		stages, edges := randTopology(r)
		want := make([]int, items)
		for i := range want {
			want[i] = propExpected(stages, edges, i)
		}
		inputs := make([]any, items)
		for i := range inputs {
			inputs[i] = i
		}

		// A pipeline nobody configured runs at the default grain of 1.
		plain, err := NewGraph(stages, edges)
		if err != nil {
			t.Fatalf("building topology: %v", err)
		}
		got, err := plain.Process(context.Background(), inputs)
		if err != nil {
			t.Fatalf("trial %d unconfigured: %v", trial, err)
		}
		for i, v := range got {
			if v.(int) != want[i] {
				t.Fatalf("trial %d unconfigured output %d: got %v want %v (edges %v)", trial, i, v, want[i], edges)
			}
		}

		for _, grain := range grains {
			got, err := propBuild(t, stages, edges, grain).Process(context.Background(), inputs)
			if err != nil {
				t.Fatalf("trial %d grain %d: %v", trial, grain, err)
			}
			if len(got) != items {
				t.Fatalf("trial %d grain %d: %d outputs for %d inputs", trial, grain, len(got), items)
			}
			for i, v := range got {
				if v.(int) != want[i] {
					t.Fatalf("trial %d grain %d output %d: got %v want %v (edges %v)",
						trial, grain, i, v, want[i], edges)
				}
			}
		}
	}
}

// TestBatchedCancelPrefixProperty cancels mid-stream at random points:
// whatever the pipeline manages to deliver before the cancel must still
// be a correct ordered prefix — cancellation may truncate the stream
// but never corrupt or reorder it.
func TestBatchedCancelPrefixProperty(t *testing.T) {
	watchGoroutines(t)
	r := rand.New(rand.NewSource(7))
	const items = 400
	for trial := 0; trial < 8; trial++ {
		stages, edges := randTopology(r)
		want := make([]int, items)
		for i := range want {
			want[i] = propExpected(stages, edges, i)
		}
		cancelAt := 1 + r.Intn(items/2)
		for _, grain := range []int{1, 3, 16} {
			p := propBuild(t, stages, edges, grain)
			ctx, cancel := context.WithCancel(context.Background())
			in := make(chan any, 64)
			out, errs := p.Run(ctx, in)
			go func() {
				defer close(in)
				for i := 0; i < items; i++ {
					select {
					case in <- i:
					case <-ctx.Done():
						return
					}
				}
			}()
			seen := 0
			for v := range out {
				if seen < len(want) && v.(int) != want[seen] {
					t.Fatalf("trial %d grain %d output %d: got %v want %v (cancel at %d, edges %v)",
						trial, grain, seen, v, want[seen], cancelAt, edges)
				}
				seen++
				if seen == cancelAt {
					cancel()
				}
			}
			err := <-errs
			cancel()
			if seen > items {
				t.Fatalf("trial %d grain %d: %d outputs for %d inputs", trial, grain, seen, items)
			}
			// A run that drained everything before the cancel landed
			// reports success; otherwise the cancellation must surface.
			if err != nil && err != context.Canceled {
				t.Fatalf("trial %d grain %d: unexpected error %v", trial, grain, err)
			}
		}
	}
}
