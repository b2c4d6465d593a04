package pipeline

// The linger bound: the head batcher is the only boundary where an
// item ever waits for more input, and that wait is capped by the
// linger timeout. Under a trickle far slower than the batch-fill rate
// every item must flush on the timer, not sit until grain items
// accumulate — the regression this guards is a batched pipeline adding
// seconds of latency to sparse streams. The converse holds at grain 1:
// a slab of one is never partial, so it never waits on the timer.

import (
	"context"
	"testing"
	"time"
)

func TestTrickleNeverWaitsLongerThanLinger(t *testing.T) {
	const (
		gap   = 25 * time.Millisecond
		items = 12
		// Generous scheduling slack for a loaded single-CPU runner,
		// while staying far below what either row would wait if the
		// bound it guards were broken.
		bound = 250 * time.Millisecond
	)
	for _, tc := range []struct {
		name   string
		grain  int
		linger time.Duration
	}{
		// At one item per 25 ms, filling a 64-item slab would take
		// ~1.6 s; the linger must flush each item within ~10 ms.
		{"linger flushes a partial slab", 64, 10 * time.Millisecond},
		// A slab of one is full the moment it opens: it must go out at
		// once and never wait on the (here, one second) linger.
		{"grain 1 never lingers", 1, time.Second},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ident := func(_ context.Context, v any) (any, error) { return v, nil }
			p, err := New(Stage{Name: "r", Fn: ident, Replicas: 4, Buffer: 8})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnableBatch(tc.grain, tc.linger); err != nil {
				t.Fatal(err)
			}
			in := make(chan any)
			out, errs := p.Run(context.Background(), in)
			sent := make([]time.Time, items)
			go func() {
				defer close(in)
				for i := 0; i < items; i++ {
					sent[i] = time.Now()
					in <- i
					time.Sleep(gap)
				}
			}()
			i := 0
			for v := range out {
				sojourn := time.Since(sent[i])
				if v.(int) != i {
					t.Fatalf("output %d: got %v", i, v)
				}
				if sojourn > bound {
					t.Errorf("item %d waited %v, want < %v (grain %d, linger %v, gap %v)",
						i, sojourn, bound, tc.grain, tc.linger, gap)
				}
				i++
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if i != items {
				t.Fatalf("lost items: %d of %d", i, items)
			}
		})
	}
}
