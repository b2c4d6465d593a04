package pipeline

// The head's burst states. It parks only when the input is dry and
// otherwise drains the channel with non-blocking receives, so what used
// to be one select per item is now four situations: a burst that never
// goes dry while the run is cancelled, a burst that ends on a partial
// slab, a grain shrunk under an open slab, and an input closed mid-burst.
// Eager — may this slab be the last traffic for a while? — is decided by
// the burst's look-ahead, not by len() of a channel that may have no
// buffer to measure.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// burstSlack is the scheduling slack the linger tests allow a loaded
// two-CPU runner (the same as TestTrickleNeverWaitsLongerThanLinger).
const burstSlack = 250 * time.Millisecond

// TestCancelUnderSaturatedInput: a feeder that keeps a buffered input
// non-empty never lets the head park, so a cancellation has to be noticed
// at a flush. The head returns, the run reports context.Canceled, every
// slab is back in the pool, and the head opened at most two slabs after
// the cancel: the one behind the flush that latched it, and one it may
// have been opening as the cancel landed.
func TestCancelUnderSaturatedInput(t *testing.T) {
	watchGoroutines(t)
	for _, grain := range []int{1, 16} {
		t.Run(fmt.Sprintf("grain%d", grain), func(t *testing.T) {
			p := identChain(t, 3)
			if err := p.EnableBatch(grain, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			var live, opened atomic.Int64
			var cancelled atomic.Bool
			p.slabHook = func(d int) {
				live.Add(int64(d))
				if d > 0 && cancelled.Load() {
					opened.Add(1)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			in := make(chan any, 64)
			stop := make(chan struct{})
			fed := make(chan struct{})
			go func() { // outlives the run's context: the input stays wet
				defer close(fed)
				for i := 0; ; i++ {
					select {
					case in <- i:
					case <-stop:
						return
					}
				}
			}()
			out, errs := p.Run(ctx, in)
			seen := 0
			for v := range out {
				if v.(int) != seen {
					t.Fatalf("output %d: got %v", seen, v)
				}
				if seen++; seen == 50*grain {
					cancelled.Store(true)
					cancel()
				}
			}
			select {
			case err := <-errs:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("run did not end within 2s of cancel")
			}
			close(stop)
			<-fed
			if n := live.Load(); n != 0 {
				t.Errorf("%d slabs never returned to the pool", n)
			}
			if n := opened.Load(); n > 2 {
				t.Errorf("the head opened %d slabs after the cancel, want at most 2", n)
			}
		})
	}
}

// TestBurstThenSilenceFlushesOnLinger: grain+3 items arrive at once and
// then nothing. The three that opened a slab mid-burst had no clock while
// the burst lasted; they get it when the head parks, and arrive within
// the linger of that.
func TestBurstThenSilenceFlushesOnLinger(t *testing.T) {
	watchGoroutines(t)
	const grain, linger = 64, 10 * time.Millisecond
	p := identChain(t, 2)
	if err := p.EnableBatch(grain, linger); err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 2*grain)
	out, errs := p.Run(context.Background(), in)
	start := time.Now()
	for i := 0; i < grain+3; i++ {
		in <- i
	}
	for i := 0; i < grain+3; i++ {
		select {
		case v := <-out:
			if v.(int) != i {
				t.Fatalf("output %d: got %v", i, v)
			}
		case <-time.After(linger + burstSlack):
			t.Fatalf("item %d of a burst of %d still not delivered %v after it (linger %v)",
				i, grain+3, time.Since(start), linger)
		}
	}
	close(in)
	if _, ok := <-out; ok {
		t.Error("surplus output")
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestBurstGrainShrinkFlushesAtNextItem: SetGrainAt(0, n) below the
// open slab's length takes effect at the next item the head takes, in a
// burst as at a park — and only for the slab that was open: the rest of
// the burst opens a new one, which waits (here, for the close; the
// linger is an hour).
func TestBurstGrainShrinkFlushesAtNextItem(t *testing.T) {
	watchGoroutines(t)
	const open, burst = 40, 3
	p := identChain(t, 2)
	if err := p.EnableBatch(64, time.Hour); err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 64)
	for i := 0; i < open; i++ {
		in <- i
	}
	out, errs := p.Run(context.Background(), in)
	quiet := func(when string) {
		t.Helper()
		select {
		case v := <-out:
			t.Fatalf("%s: output %v from a slab that should still be open", when, v)
		case <-time.After(50 * time.Millisecond):
		}
	}
	quiet("before the shrink") // 40 of 64, no clock to speak of
	if err := p.SetGrainAt(0, 8); err != nil {
		t.Fatal(err)
	}
	quiet("after the shrink, before the next item")
	for i := open; i < open+burst; i++ {
		in <- i
	}
	for i := 0; i <= open; i++ {
		select {
		case v := <-out:
			if v.(int) != i {
				t.Fatalf("output %d: got %v", i, v)
			}
		case <-time.After(burstSlack):
			t.Fatalf("item %d not flushed by the item that found the grain shrunk to 8 under a slab of %d", i, open)
		}
	}
	quiet("after the flush") // the burst's other two opened a slab of their own
	close(in)
	n := open + 1
	for v := range out {
		if v.(int) != n {
			t.Fatalf("output %d: got %v", n, v)
		}
		n++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n != open+burst {
		t.Fatalf("delivered %d of %d", n, open+burst)
	}
}

// TestBurstClosedInputFlushesTailEager holds the first stage shut and
// reads the slabs the head left in the entry queue: of a closed burst of
// 2×grain+5, the full slab whose look-ahead found the next item is not
// eager, and the partial slab the close cut short is.
func TestBurstClosedInputFlushesTailEager(t *testing.T) {
	watchGoroutines(t)
	const grain = 8
	gate := make(chan struct{})
	p, err := New(Stage{Replicas: 1, Buffer: 4, Fn: func(_ context.Context, v any) (any, error) {
		<-gate
		return v, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableBatch(grain, time.Hour); err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 2*grain+5)
	for i := 0; i < cap(in); i++ {
		in <- i
	}
	close(in)
	out, errs := p.Run(context.Background(), in)
	r := p.run.Load()
	type slab struct {
		items int
		eager bool
	}
	var queued []slab
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		done := r.entry.closed
		queued = queued[:0]
		r.entry.q.RemoveIf(func(b *batch) bool {
			queued = append(queued, slab{len(b.items), b.eager})
			return false
		})
		r.mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the head did not finish a closed input")
		}
	}
	// The first slab is with the gated stage; the other two are queued.
	if want := []slab{{grain, false}, {5, true}}; len(queued) != 2 || queued[0] != want[0] || queued[1] != want[1] {
		t.Errorf("entry queue holds %+v, want %+v", queued, want)
	}
	close(gate)
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
	if n != cap(in) {
		t.Fatalf("delivered %d of %d", n, cap(in))
	}
}

// TestEagerFollowsLookAhead: a head slab is eager only when the input was
// dry behind it, so a coarsening bridge edge coarsens. [1, 64] over n
// items hands the second stage about n/64 slabs when the feeder can run
// ahead — through a buffered channel, and through Process — where len()
// of an unbuffered channel called every slab eager and handed it n. Every
// time the head does find the input dry costs one slab more: a handful in
// a run (more under the race detector, which slows the feeder most). An
// unbuffered feeder that the head outruns is still dry at every look:
// that case only has to beat n.
func TestEagerFollowsLookAhead(t *testing.T) {
	watchGoroutines(t)
	const n, grain = 64_000, 64
	dry := int64(16)
	if raceEnabled {
		dry = 128
	}
	downstream := func(t *testing.T, run func(p *Pipeline) int) int64 {
		t.Helper()
		p := chain2(t)
		if err := p.EnableBatchEdges([]int{1, grain}, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		var taken atomic.Int64
		p.slabHook = func(d int) {
			if d > 0 {
				taken.Add(1)
			}
		}
		if got := run(p); got != n {
			t.Fatalf("delivered %d of %d", got, n)
		}
		return taken.Load() - n // the head took one slab per item
	}
	stream := func(buffer int) func(p *Pipeline) int {
		return func(p *Pipeline) int {
			in := make(chan any, buffer)
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
					t.Fatalf("output %d: got %v", seen, v)
				}
				seen++
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			return seen
		}
	}
	process := func(p *Pipeline) int {
		got, err := p.Process(context.Background(), ints(n))
		if err != nil {
			t.Fatal(err)
		}
		return len(got)
	}
	for _, tc := range []struct {
		name string
		run  func(p *Pipeline) int
		max  int64
	}{
		{"buffered", stream(256), n/grain + dry},
		{"Process", process, n/grain + dry},
		{"unbuffered", stream(0), n - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := downstream(t, tc.run); got > tc.max {
				t.Errorf("stage 1 was handed %d slabs for %d items at edge grain %d, want at most %d",
					got, n, grain, tc.max)
			} else {
				t.Logf("stage 1 was handed %d slabs", got)
			}
		})
	}
}
