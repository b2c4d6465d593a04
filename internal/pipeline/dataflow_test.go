package pipeline

// The shape of the dataflow wiring: what a run starts, what it holds,
// what it gives back. Goroutines per run do not depend on the stage
// count; a consumer that stops reading stalls the producer behind a
// bounded number of items; a grown limiter admits queued slabs with no
// task completing; an unordered stage holds no finished slab behind an
// unfinished one; every slab taken from the pool returns to it,
// however the run ends; and a one-worker executor — which deadlocks any
// design where a task waits on another — runs every property.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridpipe/internal/conc/steal"
	"gridpipe/internal/topo"
)

// settle polls read until it returns the same value for 50 ms and
// returns that value: the run has stopped moving.
func settle(read func() int64) int64 {
	last, since := read(), time.Now()
	for time.Since(since) < 50*time.Millisecond {
		time.Sleep(time.Millisecond)
		if cur := read(); cur != last {
			last, since = cur, time.Now()
		}
	}
	return last
}

// feed sends 0,1,2,… on an unbuffered channel until ctx ends, counting
// what was accepted.
func feed(ctx context.Context, accepted *atomic.Int64) <-chan any {
	in := make(chan any)
	go func() {
		defer close(in)
		for i := 0; ; i++ {
			select {
			case in <- i:
				accepted.Add(1)
			case <-ctx.Done():
				return
			}
		}
	}()
	return in
}

func identChain(t *testing.T, n int) *Pipeline {
	t.Helper()
	stages := make([]Stage, n)
	for i := range stages {
		stages[i] = Stage{Fn: edgeIdent, Replicas: 2, Buffer: 2}
	}
	p, err := New(stages...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunGoroutinesIndependentOfStages(t *testing.T) {
	watchGoroutines(t) // also starts the process-wide executor's workers
	before := runtime.NumGoroutine()
	delta := func(p *Pipeline) int {
		// The previous run's goroutines are on their way out once its
		// error channel closes; let them go before counting this one's.
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var accepted atomic.Int64
		_, errs := p.Run(ctx, feed(ctx, &accepted))
		// Nobody reads the output: the run fills up and comes to rest
		// with every goroutine it started parked.
		settle(accepted.Load)
		d := runtime.NumGoroutine() - before
		cancel()
		<-errs
		return d
	}
	farm, err := New(Stage{Fn: edgeIdent, Replicas: 2, Buffer: 2, Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	short, long, unordered := delta(identChain(t, 2)), delta(identChain(t, 12)), delta(farm)
	if short != long || unordered != long {
		t.Errorf("a 2-stage run holds %d goroutines mid-run, a 12-stage run %d, an unordered one-stage run %d", short, long, unordered)
	}
	if long > 3+1 {
		t.Errorf("a run holds %d goroutines mid-run, want at most 3 and this test's feeder", long)
	}
}

// TestBackpressureBoundsInFlight: with a consumer that reads nothing,
// the run accepts what its queues, tokens, head slab, egress and output
// buffer can hold and then blocks the feeder; idle executor workers are not mistaken for
// a stall; and cancelling unwinds it.
func TestBackpressureBoundsInFlight(t *testing.T) {
	watchGoroutines(t)
	for _, grain := range []int{1, 16} {
		t.Run(fmt.Sprintf("grain%d", grain), func(t *testing.T) {
			stages := []Stage{
				{Fn: edgeIdent, Replicas: 3, Buffer: 2},
				{Fn: edgeIdent, Replicas: 1, Buffer: 4},
				{Fn: edgeIdent, Replicas: 2, Buffer: 1},
			}
			p, err := New(stages...)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnableBatch(grain, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			// Slabs at rest: the entry queue, one queue behind every
			// stage (the last one's is the exit queue), a token per
			// replica, the slab the head is filling or pushing, and the
			// slab the egress is unpacking — into the output channel's
			// buffer, which holds cap(out) items more.
			slabs := stages[0].Buffer + 2
			for _, st := range stages {
				slabs += st.Buffer + st.Replicas
			}
			spills := steal.Default().Stats().Spills
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var accepted atomic.Int64
			out, errs := p.Run(ctx, feed(ctx, &accepted))
			got := settle(accepted.Load)
			if max := int64(slabs*grain + cap(out)); got > max {
				t.Errorf("feeder was accepted %d items with nobody reading, bound is %d", got, max)
			}
			if got < int64(grain) {
				t.Errorf("feeder was accepted only %d items", got)
			}
			if now := steal.Default().Stats().Spills; now != spills {
				t.Errorf("%d spill workers injected while the run was merely backed up", now-spills)
			}
			cancel()
			select {
			case err := <-errs:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("run did not end within 2s of cancel")
			}
		})
	}
}

// TestSetReplicasAdmitsQueuedSlabs: nothing waits on a stage's limiter
// any more, so a grown limit must itself start the slabs that were
// queued behind the old one — here with every running task parked on a
// gate, so no completion can do it instead.
func TestSetReplicasAdmitsQueuedSlabs(t *testing.T) {
	watchGoroutines(t)
	var entered atomic.Int64
	gate := make(chan struct{})
	p, err := New(Stage{Name: "stalled", Replicas: 1, Buffer: 4, Fn: func(_ context.Context, v any) (any, error) {
		entered.Add(1)
		<-gate
		return v, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 16)
	for i := 0; i < cap(in); i++ {
		in <- i
	}
	close(in)
	out, errs := p.Run(context.Background(), in)
	if got := settle(entered.Load); got != 1 {
		t.Fatalf("%d tasks running at limit 1", got)
	}
	if err := p.SetReplicas(0, 4); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for entered.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := settle(entered.Load); got != 4 {
		t.Errorf("%d tasks running after SetReplicas(0, 4) with none completing, want 4", got)
	}
	close(gate)
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("output %d: got %v", seen, v)
		}
		seen++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != cap(in) {
		t.Fatalf("delivered %d of %d", seen, cap(in))
	}
}

// TestUnorderedStageHasNoHeadOfLine: task 0 does not return until the
// consumer has received tasks 1…k — which an ordered ring holds behind
// task 0 for ever. Channels alone order the steps; the context's timeout
// only turns that deadlock into a failure.
func TestUnorderedStageHasNoHeadOfLine(t *testing.T) {
	watchGoroutines(t)
	const k = 3
	received := make(chan struct{})
	p, err := New(Stage{Name: "farm", Replicas: k + 1, Buffer: k + 1, Unordered: true, Fn: func(ctx context.Context, v any) (any, error) {
		if v.(int) == 0 {
			select {
			case <-received:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return v, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any, k+1)
	for i := 0; i <= k; i++ {
		in <- i
	}
	close(in)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, errs := p.Run(ctx, in)
	for n := 0; n < k; n++ {
		v, ok := <-out
		if !ok {
			t.Fatalf("received %d of tasks 1…%d while task 0 was blocked: %v", n, k, <-errs)
		}
		if v.(int) == 0 {
			t.Fatalf("task 0 delivered while still blocked")
		}
	}
	close(received)
	if v, ok := <-out; !ok || v.(int) != 0 {
		t.Fatalf("after tasks 1…%d: got %v, %v, want task 0", k, v, ok)
	}
	if v, ok := <-out; ok {
		t.Fatalf("a %dth output: %v", k+2, v)
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestEverySlabReturnsToThePool counts slabs out of and back into the
// pool: when the run has ended — by completion, stage error, stage
// panic, caller cancel mid-stream, or a consumer that stops reading and
// then cancels — none is left in a queue, a ring, a re-slab accumulator,
// the head's or the egress's hands.
func TestEverySlabReturnsToThePool(t *testing.T) {
	watchGoroutines(t)
	const items, k = 600, 211
	boom := errors.New("boom")
	at := func(do func() error) Func {
		return func(_ context.Context, v any) (any, error) {
			if v.(int) == k {
				if err := do(); err != nil {
					return nil, err
				}
			}
			return v, nil
		}
	}
	join := func(_ context.Context, v any) (any, error) { return v.([]any)[0], nil }
	shapes := map[string]func(mid Func, grain int) *Pipeline{
		// Every edge of the chain re-slabs, to a finer and then a coarser
		// grain than the head's.
		"chain": func(mid Func, grain int) *Pipeline {
			p, err := New(
				Stage{Fn: edgeIdent, Replicas: 2, Buffer: 2},
				Stage{Fn: mid, Replicas: 3, Buffer: 2},
				Stage{Fn: edgeIdent, Replicas: 1, Buffer: 2},
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnableBatchEdges([]int{grain, (grain + 3) / 4, grain * 2}, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			return p
		},
		"diamond": func(mid Func, grain int) *Pipeline {
			p, err := NewGraph(
				[]Stage{
					{Fn: edgeIdent, Replicas: 2, Buffer: 2},
					{Fn: mid, Replicas: 3, Buffer: 2},
					{Fn: edgeIdent, Replicas: 1, Buffer: 2},
					{Fn: join, Replicas: 2, Buffer: 2},
				},
				[]topo.Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}},
			)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnableBatch(grain, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			return p
		},
		// A farm's stage: slabs leave its ring in completion order.
		"unordered": func(mid Func, grain int) *Pipeline {
			p, err := New(Stage{Fn: mid, Replicas: 3, Buffer: 2, Unordered: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnableBatch(grain, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			return p
		},
	}
	// Each ending: the middle stage's behaviour at item k, how many
	// outputs the consumer reads before it stops (-1: all), whether it
	// cancels when it stops, and the error the run must report.
	type ending struct {
		name   string
		mid    func(cancel func()) Func
		read   int
		cancel bool
		want   func(error) bool
	}
	pass := func(func()) Func { return edgeIdent }
	endings := []ending{
		{"completion", pass, -1, false, func(err error) bool { return err == nil }},
		{"stage error", func(func()) Func { return at(func() error { return boom }) }, -1, false,
			func(err error) bool { return errors.Is(err, boom) }},
		{"stage panic", func(func()) Func { return at(func() error { panic("kaboom") }) }, -1, false,
			func(err error) bool { return err != nil && strings.Contains(err.Error(), "kaboom") }},
		{"cancel mid-stream", func(cancel func()) Func { return at(func() error { cancel(); return nil }) }, -1, false,
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"consumer stops then cancels", pass, 40, true,
			func(err error) bool { return errors.Is(err, context.Canceled) }},
	}
	for shape, build := range shapes {
		for _, grain := range []int{1, 16} {
			for _, e := range endings {
				t.Run(fmt.Sprintf("%s/grain%d/%s", shape, grain, e.name), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					p := build(e.mid(cancel), grain)
					var live atomic.Int64
					p.slabHook = func(d int) { live.Add(int64(d)) }
					var accepted atomic.Int64
					in := make(chan any)
					go func() {
						defer close(in)
						for i := 0; i < items; i++ {
							select {
							case in <- i:
								accepted.Add(1)
							case <-ctx.Done():
								return
							}
						}
					}()
					out, errs := p.Run(ctx, in)
					for n := 0; n != e.read; n++ {
						if _, ok := <-out; !ok {
							break
						}
					}
					if e.cancel {
						settle(accepted.Load) // let the run back up behind us
						cancel()
					}
					if err := <-errs; !e.want(err) {
						t.Errorf("err = %v", err)
					}
					if n := live.Load(); n != 0 {
						t.Errorf("%d slabs never returned to the pool", n)
					}
				})
			}
		}
	}
}

// TestOneWorkerExecutor runs the executor-reference, cancel-prefix and
// panic-containment properties on a private one-worker set, where a task
// that waited for another task — to drain a queue, free a token, take a
// hand-off — would wait forever.
func TestOneWorkerExecutor(t *testing.T) {
	watchGoroutines(t)
	const items = 300
	inputs := ints(items)

	t.Run("matches reference", func(t *testing.T) {
		r := rand.New(rand.NewSource(47))
		for trial := 0; trial < 10; trial++ {
			stages, edges := randTopology(r)
			grain := []int{1, 3, 16}[trial%3]
			ex := steal.New(1)
			p := propBuild(t, stages, edges, grain)
			p.UseExecutor(ex)
			got, err := p.Process(context.Background(), inputs)
			ex.Close()
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			for i, v := range got {
				if want := propExpected(stages, edges, i); v.(int) != want {
					t.Fatalf("trial %d output %d: got %v, want %v (grain %d, edges %v)", trial, i, v, want, grain, edges)
				}
			}
		}
	})

	t.Run("cancel delivers a prefix", func(t *testing.T) {
		r := rand.New(rand.NewSource(53))
		for trial := 0; trial < 6; trial++ {
			stages, edges := randTopology(r)
			cancelAt := 1 + r.Intn(items/2)
			for _, grain := range []int{1, 16} {
				ex := steal.New(1)
				p := propBuild(t, stages, edges, grain)
				p.UseExecutor(ex)
				ctx, cancel := context.WithCancel(context.Background())
				var accepted atomic.Int64
				out, errs := p.Run(ctx, feed(ctx, &accepted))
				seen := 0
				for v := range out {
					if want := propExpected(stages, edges, seen); v.(int) != want {
						t.Fatalf("trial %d grain %d output %d: got %v want %v (cancel at %d, edges %v)",
							trial, grain, seen, v, want, cancelAt, edges)
					}
					if seen++; seen == cancelAt {
						cancel()
					}
				}
				err := <-errs
				cancel()
				ex.Close()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("trial %d grain %d: err = %v", trial, grain, err)
				}
			}
		}
	})

	t.Run("panic is contained", func(t *testing.T) {
		const k = 137
		for _, grain := range []int{1, 16} {
			ex := steal.New(1)
			bad, err := New(
				Stage{Name: "pre", Fn: edgeIdent, Replicas: 2},
				Stage{Name: "explodes", Replicas: 3, Fn: func(_ context.Context, v any) (any, error) {
					if v.(int) == k {
						panic("kaboom")
					}
					return v, nil
				}},
			)
			if err != nil {
				t.Fatal(err)
			}
			good := identChain(t, 2)
			for _, p := range []*Pipeline{bad, good} {
				p.UseExecutor(ex)
				if err := p.EnableBatch(grain, 0); err != nil {
					t.Fatal(err)
				}
			}
			type result struct {
				out []any
				err error
			}
			bystander := make(chan result, 1)
			go func() {
				out, err := good.Process(context.Background(), inputs)
				bystander <- result{out, err}
			}()
			_, err = bad.Process(context.Background(), inputs)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("item %d", k)) {
				t.Errorf("grain %d: panicking pipeline: err = %v", grain, err)
			}
			r := <-bystander
			ex.Close()
			if r.err != nil {
				t.Fatalf("grain %d: bystander on the same one-worker set: %v", grain, r.err)
			}
			for i, v := range r.out {
				if v.(int) != i {
					t.Fatalf("grain %d: bystander output %d: got %v", grain, i, v)
				}
			}
		}
	})
}
