package pipeline

// The yield rule (advance): a task hands its processor to a goroutine it
// readied, which would otherwise wait on that worker's run queue until
// the worker blocked. Two triggers: a send into a drained output, after
// stage work of at least yieldAfter (the consumer is readied), and a
// starved head before a slab the stage clock says takes at least
// yieldAfter (the head, readied when stage 0 took the entry slab).

import (
	"context"
	"runtime"
	"testing"
	"time"

	"gridpipe/internal/conc/steal"
)

// TestCheapStagesNeverYield: on sub-µs stages neither trigger fires — a
// chain of identity stages at grain 1 (chain_light's shape) and at grain
// 64 (chain_batched's; 0.3 µs a slab here) counts no Yield on a private
// two-worker set, whose counters nothing else touches. The clock is a
// wall clock: a timed slab the OS or the runtime stretches past
// yieldAfter makes the rule yield once or twice, as in 3–9 % of these
// runs on the 2-CPU VM (18 % under -race at grain 1). So each grain has
// five runs to count zero; a rule that misjudges cheap stages yields in
// every run. Under the race detector an identity stage costs 50–100 ns
// an item, so a slab of 64 reaches yieldAfter and grain 64 is not cheap:
// it runs without the race detector only.
func TestCheapStagesNeverYield(t *testing.T) {
	const items, runs = 1000, 5
	for _, grain := range []int{1, 64} {
		if grain > 1 && raceEnabled {
			continue
		}
		var counts []int64
		for run := 0; run < runs; run++ {
			ex := steal.New(2)
			p := identChain(t, 4)
			p.UseExecutor(ex)
			if err := p.EnableBatch(grain, 0); err != nil {
				t.Fatal(err)
			}
			out, err := p.Process(context.Background(), ints(items))
			ex.Close()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != items {
				t.Fatalf("grain %d: %d outputs for %d inputs", grain, len(out), items)
			}
			counts = append(counts, ex.Stats().Yields)
			if counts[run] == 0 {
				break
			}
		}
		if counts[len(counts)-1] != 0 {
			t.Fatalf("grain %d: sub-µs stages yielded in every run: %v yields", grain, counts)
		}
	}
}

// longFixture runs a two-stage chain on a private one-worker set at
// GOMAXPROCS(1), where the order goroutines run in is up to the yield:
// nothing preempts a running goroutine for another before the Go
// runtime's 10 ms time slice. Stage 0 is cheap, with room for four slabs
// in flight; each of its calls tells stage 1's clock that stage 1 takes a
// millisecond an item, so every stage-1 slab a task keeps is long by the
// clock, while stage 1's real work stays far below yieldAfter and the
// drained-output trigger, which sums real stage work, does not fire.
// afterYield runs at the start of each stage-1 call that follows a Yield
// — on one worker, nothing but the slab's own task ran stage work
// between the two — with the run's state; it reports whether to go on
// calling it. longFixture returns the executor's counters.
func longFixture(t *testing.T, items int, afterYield func(r *dataflow) bool) steal.Stats {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ex := steal.New(1)
	defer ex.Close()
	var p *Pipeline
	var seen int64
	watch := true
	p, err := New(
		Stage{Name: "cheap", Replicas: 4, Fn: func(_ context.Context, v any) (any, error) {
			p.live[1].perItem.Store(int64(time.Millisecond))
			return v, nil
		}},
		Stage{Name: "long", Fn: func(_ context.Context, v any) (any, error) {
			if y := ex.Stats().Yields; y != seen && watch {
				seen = y
				watch = afterYield(p.run.Load())
			}
			return v, nil
		}},
	)
	if err != nil {
		t.Fatal(err)
	}
	p.UseExecutor(ex)
	runFilled(t, p, items)
	return ex.Stats()
}

// runFilled runs p over 0..items-1 from an input channel that holds them
// all, so the head never waits for input, and checks the output is the
// same sequence.
func runFilled(t *testing.T, p *Pipeline, items int) {
	t.Helper()
	in := make(chan any, items)
	for i := 0; i < items; i++ {
		in <- i
	}
	close(in)
	out, errs := p.Run(context.Background(), in)
	n := 0
	for v := range out {
		if v.(int) != n {
			t.Fatalf("output %d: got %v", n, v)
		}
		n++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n != items {
		t.Fatalf("%d outputs for %d inputs", n, items)
	}
}

// TestStarvedHeadYieldsBeforeLongSlab: a task that keeps a long slab
// while stage 0 could fire but has nothing on its in-edge yields first,
// so the head — readied when stage 0 took the entry slab, and queued
// behind this very worker — pushes its next slab, which stage 0 fires,
// before the long one runs. A yield does not order the run queue exactly
// (the Go scheduler takes from its global queue, where a yielding
// goroutine goes, every 61st round), so the test counts: at most a
// quarter of the slabs run after a yield may find the head still behind.
func TestStarvedHeadYieldsBeforeLongSlab(t *testing.T) {
	var after, starved int
	st := longFixture(t, 200, func(r *dataflow) bool {
		r.mu.Lock()
		if r.headStarved() {
			starved++
		}
		r.mu.Unlock()
		after++
		return true
	})
	if st.Yields == 0 || after == 0 {
		t.Fatalf("no yield to a starved head before a long slab (%d yields)", st.Yields)
	}
	if starved > after/4 {
		t.Fatalf("%d of %d long slabs run after a yield found stage 0 still waiting on the head", starved, after)
	}
}

// TestBlockedSlabAfterHeadYieldGetsSpillWorker: a kept slab that blocks
// right after the head trigger's yield still gets a spill worker for the
// stage-0 slabs the head pushed during the yield. The yield is movement
// to the stall probe for the tick it falls in, so the probe spills at its
// wedgedTicks-th wedged tick after that one
// (steal.TestSpillNeedsTwoWedgedTicks counts the ticks); here the one
// fleet worker sleeps inside stage 1 until stage 0 completes another
// slab, which only a spill worker can run.
func TestBlockedSlabAfterHeadYieldGetsSpillWorker(t *testing.T) {
	watchGoroutines(t)
	var blocked, stuck bool
	st := longFixture(t, 200, func(r *dataflow) bool {
		blocked = true
		before, _ := r.p.StageTotals(0)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
			if n, _ := r.p.StageTotals(0); n > before {
				return false
			}
			if time.Now().After(deadline) {
				stuck = true
				return false
			}
		}
	})
	switch {
	case !blocked:
		t.Fatalf("no long slab ran after a yield (%d yields)", st.Yields)
	case stuck:
		t.Fatalf("stage 0 made no progress for 5 s behind a slab blocked after a yield (%d spill workers)", st.Spills)
	case st.Spills == 0:
		t.Fatal("stage 0 moved behind a blocked fleet worker, but no spill worker ran it")
	}
}

// TestDrainedOutputYieldsToConsumer: a task whose send into an empty
// output readied the consumer, after at least yieldAfter of stage work,
// yields, so the consumer empties the output before the worker starts
// the next slab; without the yield the consumer would wait on the
// worker's run queue until the worker ran out of slabs, which the head
// keeps it from. One spinning stage on a private one-worker set at
// GOMAXPROCS(1); as in TestStarvedHeadYieldsBeforeLongSlab, at most a
// quarter of the slabs started after a yield may find the consumer still
// behind.
func TestDrainedOutputYieldsToConsumer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ex := steal.New(1)
	defer ex.Close()
	var seen int64
	after, behind := 0, 0
	var p *Pipeline
	p, err := New(Stage{Name: "spin", Fn: func(_ context.Context, v any) (any, error) {
		if y := ex.Stats().Yields; y != seen {
			seen = y
			after++
			if len(p.run.Load().out) > 0 {
				behind++
			}
		}
		spin(2 * yieldAfter)
		return v, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	p.UseExecutor(ex)
	runFilled(t, p, 100)
	if after == 0 {
		t.Fatalf("no yield to the consumer (%d yields)", ex.Stats().Yields)
	}
	if behind > after/4 {
		t.Fatalf("%d of %d slabs started after a yield found the consumer still behind", behind, after)
	}
}
