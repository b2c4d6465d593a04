package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gridpipe/internal/topo"
)

// hammerReplicas drives SetReplicas on every stage up and down from a
// separate goroutine until stop is closed — the live adaptive
// controller's actuation pattern, compressed to its most hostile
// cadence.
func hammerReplicas(p *Pipeline, stages int, stop <-chan struct{}, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			st := i % stages
			n := 1 + rng.Intn(8)
			if err := p.SetReplicas(st, n); err != nil {
				panic(fmt.Sprintf("SetReplicas(%d, %d): %v", st, n, err))
			}
			if i%16 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
}

// runOrdered streams n items through the pipeline and asserts strict
// 1-for-1 in-order delivery.
func runOrdered(t *testing.T, p *Pipeline, n int) {
	t.Helper()
	in := make(chan any, 32)
	go func() {
		defer close(in)
		for i := 0; i < n; i++ {
			in <- i
		}
	}()
	out, errs := p.Run(context.Background(), in)
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("out of order: got %v at position %d", v, seen)
		}
		seen++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("delivered %d of %d items", seen, n)
	}
}

// jitterStage busy-waits a pseudo-random few microseconds so replica
// churn actually overlaps in-flight work.
func jitterStage(seed int) Func {
	return func(ctx context.Context, v any) (any, error) {
		d := time.Duration((v.(int)*seed)%5) * time.Microsecond
		t0 := time.Now()
		for time.Since(t0) < d {
		}
		return v, nil
	}
}

// TestResizeUnderFlightChain hammers every stage's replica limit while
// a chain pipeline streams; ordering must survive any interleaving of
// grows and shrinks. Run with -race (the CI race job does) to check
// the replica limit, the slab pool and the reorder rings, not just the
// observable order.
func TestResizeUnderFlightChain(t *testing.T) {
	p, err := New(
		Stage{Name: "a", Fn: jitterStage(3), Replicas: 2, Buffer: 4},
		Stage{Name: "b", Fn: jitterStage(5), Replicas: 1, Buffer: 4},
		Stage{Name: "c", Fn: jitterStage(7), Replicas: 3, Buffer: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammerReplicas(p, 3, stop, &wg)
	runOrdered(t, p, 5000)
	close(stop)
	wg.Wait()
}

// TestResizeUnderFlightGraph does the same over a diamond
// (split/merge) pipeline: the split's shared slab, fan-in zip, and the
// merge stage's []any parts must all tolerate concurrent resizes.
func TestResizeUnderFlightGraph(t *testing.T) {
	join := func(ctx context.Context, v any) (any, error) {
		parts := v.([]any)
		if len(parts) != 2 || parts[0].(int) != parts[1].(int) {
			return nil, fmt.Errorf("bad join parts %v", parts)
		}
		return parts[0], nil
	}
	stages := []Stage{
		{Name: "head", Fn: jitterStage(3), Replicas: 2, Buffer: 4},
		{Name: "left", Fn: jitterStage(5), Replicas: 1, Buffer: 4},
		{Name: "right", Fn: jitterStage(7), Replicas: 3, Buffer: 4},
		{Name: "tail", Fn: join, Replicas: 2, Buffer: 4},
	}
	edges := []topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}}
	p, err := NewGraph(stages, edges)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammerReplicas(p, 4, stop, &wg)
	runOrdered(t, p, 5000)
	close(stop)
	wg.Wait()
}

// TestResizeExtremesMidStream drives the limits hard in one direction
// at a time: collapse everything to 1 mid-stream, then blow it up to
// 16, with items in flight at each flip.
func TestResizeExtremesMidStream(t *testing.T) {
	p, err := New(
		Stage{Name: "a", Fn: jitterStage(3), Replicas: 8, Buffer: 8},
		Stage{Name: "b", Fn: jitterStage(5), Replicas: 8, Buffer: 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	const items = 4000
	in := make(chan any)
	go func() {
		defer close(in)
		for i := 0; i < items; i++ {
			in <- i
		}
	}()
	out, errs := p.Run(context.Background(), in)
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("out of order: got %v at position %d", v, seen)
		}
		seen++
		switch seen {
		case items / 4:
			for st := 0; st < 2; st++ {
				if err := p.SetReplicas(st, 1); err != nil {
					t.Fatal(err)
				}
			}
		case items / 2:
			for st := 0; st < 2; st++ {
				if err := p.SetReplicas(st, 16); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != items {
		t.Fatalf("delivered %d of %d", seen, items)
	}
	if got := p.Replicas(1); got != 16 {
		t.Fatalf("final replicas = %d, want 16", got)
	}
}

// TestStageTotalsMonotonic: the live sensor's Totals surface must be
// cumulative and consistent with Stats.
func TestStageTotalsMonotonic(t *testing.T) {
	p, err := New(Stage{Name: "a", Fn: jitterStage(3), Replicas: 2, Buffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	runOrdered(t, p, 500)
	count, sum := p.StageTotals(0)
	if count != 500 {
		t.Fatalf("StageTotals count = %d, want 500", count)
	}
	if sum < 0 {
		t.Fatalf("StageTotals sum = %v", sum)
	}
	if st := p.Stats()[0]; st.Count != 500 {
		t.Fatalf("Stats count = %d", st.Count)
	}
}
