package pipeline

// The executor equivalence property: for any stage graph and any grain,
// on the process-wide executor or on a private two-worker set, the
// pipeline delivers exactly the output of the sequential reference
// evaluator (propExpected), in order. The executor may only change
// *where* stage work runs, never *what* comes out or in which order
// (an unordered stage, a farm's, gives up the order of whole slabs only).
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
	// Two worker sets: the process-wide default and a private small one
	// (steals and global grabs are far more likely when workers are
	// scarce relative to stages).
	process := func(p *Pipeline, private bool, inputs []any) ([]any, error) {
		if private {
			ex := steal.New(2)
			defer ex.Close()
			p.UseExecutor(ex)
		}
		return p.Process(context.Background(), inputs)
	}
	for trial := 0; trial < 10; trial++ {
		stages, edges := randTopology(r)
		grain := []int{1, 1, 3, 16}[r.Intn(4)]
		want := make([]int, items)
		for i := range want {
			want[i] = propExpected(stages, edges, i)
		}

		for _, private := range []bool{false, true} {
			got, err := process(propBuild(t, stages, edges, grain), private, inputs)
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

	// The unordered stage (a farm's) delivers the same items, slabs in
	// completion order, each slab's items in input order. Under a linger
	// no run reaches, with an item count the grain divides, slab j is
	// exactly items [j*grain, (j+1)*grain).
	for _, grain := range []int{1, 8} {
		for _, private := range []bool{false, true} {
			p, err := New(Stage{Name: "farm", Fn: propStageFn(0), Replicas: 3, Buffer: 2, Unordered: true})
			if err == nil {
				err = p.EnableBatch(grain, time.Hour)
			}
			if err != nil {
				t.Fatal(err)
			}
			const n = items / 8 * 8
			got, err := process(p, private, inputs[:n])
			if err != nil {
				t.Fatalf("unordered grain %d (private=%v): %v", grain, private, err)
			}
			seen := make([]bool, n)
			for j, v := range got {
				i := v.(int) / 3 // propStageFn(0) triples
				if i < 0 || i >= n || v.(int) != propExpected(p.stages, nil, i) || seen[i] {
					t.Fatalf("unordered grain %d (private=%v) output %d: %v is not a fresh reference output", grain, private, j, v)
				}
				seen[i] = true
				if k := j % grain; i%grain != k {
					t.Fatalf("unordered grain %d (private=%v) output %d: item %d at offset %d of its slab", grain, private, j, i, k)
				} else if k > 0 && i != got[j-1].(int)/3+1 {
					t.Fatalf("unordered grain %d (private=%v) output %d: item %d follows item %d in one slab", grain, private, j, i, got[j-1].(int)/3)
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
	// run streams the items through p on a private two-worker set, hands
	// every output to check, cancels after cancelAt of them, and returns
	// the run's error.
	run := func(p *Pipeline, cancelAt int, check func(seen int, v any)) error {
		ex := steal.New(2)
		defer ex.Close()
		p.UseExecutor(ex)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
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
			check(seen, v)
			seen++
			if seen == cancelAt {
				cancel()
			}
		}
		return <-errs
	}
	for trial := 0; trial < 6; trial++ {
		stages, edges := randTopology(r)
		want := make([]int, items)
		for i := range want {
			want[i] = propExpected(stages, edges, i)
		}
		cancelAt := 1 + r.Intn(items/2)
		for _, grain := range []int{1, 16} {
			err := run(propBuild(t, stages, edges, grain), cancelAt, func(seen int, v any) {
				if seen < len(want) && v.(int) != want[seen] {
					t.Fatalf("trial %d grain %d output %d: got %v want %v (cancel at %d, edges %v)",
						trial, grain, seen, v, want[seen], cancelAt, edges)
				}
			})
			if err != nil && err != context.Canceled {
				t.Fatalf("trial %d grain %d: unexpected error %v", trial, grain, err)
			}
		}
	}
	// An unordered stage (a farm's) has no prefix to keep; cancelled, it
	// still delivers nothing twice and nothing the reference does not.
	for _, grain := range []int{1, 16} {
		stage := Stage{Name: "farm", Fn: propStageFn(0), Replicas: 3, Buffer: 2, Unordered: true}
		delivered := make(map[int]bool)
		err := run(propBuild(t, []Stage{stage}, nil, grain), 1+r.Intn(items/2), func(seen int, v any) {
			i := v.(int) / 3 // propStageFn(0) triples
			if i < 0 || i >= items || v.(int) != propExpected([]Stage{stage}, nil, i) || delivered[i] {
				t.Fatalf("unordered grain %d output %d: %v is not a fresh reference output", grain, seen, v)
			}
			delivered[i] = true
		})
		if err != nil && err != context.Canceled {
			t.Fatalf("unordered grain %d: unexpected error %v", grain, err)
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
