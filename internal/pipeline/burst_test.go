package pipeline

// The head's burst states. It parks only when the input is dry and
// otherwise drains the channel with non-blocking receives, so what used
// to be one select per item is now four situations: a burst that never
// goes dry while the run is cancelled, a burst that ends on a partial
// slab, a grain shrunk under an open slab, and an input closed mid-burst.

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
					// The flag goes up once cancel has returned: a
					// slab the head opens while this goroutine sits
					// between the two is not one opened after the
					// cancel.
					cancel()
					cancelled.Store(true)
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

// TestBurstGrainShrinkFlushesAtNextItem: SetGrain(n) below the
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
	if err := p.SetGrain(8); err != nil {
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
// reads the slabs the head left in the entry queue: a closed burst of
// 2×grain+5 leaves a full slab and the partial slab the close cut short,
// flushed at the close, not after the hour-long linger.
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
	var queued []int
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		r.mu.Lock()
		done := r.entry.closed
		queued = queued[:0]
		r.entry.q.RemoveIf(func(b *batch) bool {
			queued = append(queued, len(b.items))
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
	if want := []int{grain, 5}; !slices.Equal(queued, want) {
		t.Errorf("entry queue holds slabs of %v items, want %v", queued, want)
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
