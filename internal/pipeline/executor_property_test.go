package pipeline

// The executor equivalence property: for any stage graph and any grain,
// on the process-wide executor or on a private two-worker set, the
// pipeline delivers exactly the output of the sequential reference
// evaluator (propExpected), in order. The executor may only change
// *where* stage work runs, never *what* comes out or in which order.
// Runs under -race in its own named CI step.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"gridpipe/internal/conc/steal"
)

// UseExecutor points the pipeline at a specific work-stealing executor
// so a test can isolate a worker set. Call before Run; nil reselects
// the process-wide default.
func (p *Pipeline) UseExecutor(e *steal.Executor) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exec = e
}

func TestExecutorMatchesReferenceProperty(t *testing.T) {
	watchGoroutines(t)
	r := rand.New(rand.NewSource(41))
	const items = 300
	inputs := make([]any, items)
	for i := range inputs {
		inputs[i] = i
	}
	for trial := 0; trial < 10; trial++ {
		stages, edges := randTopology(r)
		grain := []int{1, 1, 3, 16}[r.Intn(4)]
		want := make([]int, items)
		for i := range want {
			want[i] = propExpected(stages, edges, i)
		}

		// Two worker sets: the process-wide default and a private
		// small one (steals and global grabs are far more likely when
		// workers are scarce relative to stages).
		for _, private := range []bool{false, true} {
			p := propBuild(t, stages, edges, grain)
			var ex *steal.Executor
			if private {
				ex = steal.New(2)
				p.UseExecutor(ex)
			}
			got, err := p.Process(context.Background(), inputs)
			if private {
				ex.Close()
			}
			if err != nil {
				t.Fatalf("trial %d (private=%v): %v", trial, private, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d (private=%v): %d outputs for %d inputs (edges %v)",
					trial, private, len(got), len(want), edges)
			}
			for i := range got {
				if got[i].(int) != want[i] {
					t.Fatalf("trial %d (private=%v) output %d: got %v, want %v (grain %d, edges %v)",
						trial, private, i, got[i], want[i], grain, edges)
				}
			}
		}
	}
}

// TestExecutorCancelPrefixProperty: under mid-stream cancellation the
// pipeline must deliver an ordered prefix of the reference
// evaluator's output — truncation is allowed, corruption and reordering are not.
func TestExecutorCancelPrefixProperty(t *testing.T) {
	watchGoroutines(t)
	r := rand.New(rand.NewSource(43))
	const items = 400
	for trial := 0; trial < 6; trial++ {
		stages, edges := randTopology(r)
		want := make([]int, items)
		for i := range want {
			want[i] = propExpected(stages, edges, i)
		}
		cancelAt := 1 + r.Intn(items/2)
		for _, grain := range []int{1, 16} {
			p := propBuild(t, stages, edges, grain)
			ex := steal.New(2)
			p.UseExecutor(ex)
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
			ex.Close()
			if err != nil && err != context.Canceled {
				t.Fatalf("trial %d grain %d: unexpected error %v", trial, grain, err)
			}
		}
	}
}

// TestGrainResizeConcurrentMidFlight is the mid-flight actuation
// regression test: SetGrain/SetGrainAt racing SetReplicas on a running
// batched pipeline must stay race-free and never drop or reorder an
// item. (The farm counterpart is TestFarmBatchWorkersConcurrent.)
func TestGrainResizeConcurrentMidFlight(t *testing.T) {
	watchGoroutines(t)
	ident := func(_ context.Context, v any) (any, error) { return v, nil }
	p, err := New(
		Stage{Name: "a", Fn: ident, Replicas: 2, Buffer: 16},
		Stage{Name: "b", Fn: ident, Replicas: 2, Buffer: 16},
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableBatchEdges([]int{4, 8}, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const items = 30000
	in := make(chan any, 64)
	out, errs := p.Run(context.Background(), in)
	go func() {
		for i := 0; i < items; i++ {
			in <- i
		}
		close(in)
	}()
	stop := make(chan struct{})
	actuated := make(chan struct{})
	go func() {
		defer close(actuated)
		r := rand.New(rand.NewSource(17))
		grains := []int{1, 2, 4, 16, 64}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				if err := p.SetGrainAt(i%p.GrainBoundaries(), grains[r.Intn(len(grains))]); err != nil {
					t.Errorf("SetGrainAt: %v", err)
					return
				}
			case 1:
				if err := p.SetGrain(grains[r.Intn(len(grains))]); err != nil {
					t.Errorf("SetGrain: %v", err)
					return
				}
			case 2:
				if err := p.SetReplicas(i%2, 1+r.Intn(4)); err != nil {
					t.Errorf("SetReplicas: %v", err)
					return
				}
			}
			runtime.Gosched()
		}
	}()
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("output %d: got %v, want %d (dropped or reordered under concurrent actuation)", seen, v, seen)
		}
		seen++
	}
	close(stop)
	<-actuated
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != items {
		t.Fatalf("lost items: %d of %d", seen, items)
	}
}
