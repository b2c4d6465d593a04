package pipeline

// The unpack rule: a stepper that finds the front exit slab fitting the
// output buffer's free room sends its items itself, and the egress
// goroutine only takes what does not fit, the end of the run and a
// cancellation. The buffer holds two slabs of the grain a run starts at
// (outputRoom), so a consumer that reads in bursts and stalls makes it
// fill and drain, and both parties unpack, at every starting grain (1,
// 16, 64). A grain raised mid-run past the buffer (16, then 48) makes the
// egress take every slab from then on, whole. A send on the output after
// it closed would panic the run's goroutine and with it the test binary.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// burstyReader reads out in bursts of 1–80 items with a stall of up to
// 300 µs between them, calling cancel once it has read cancelAt items
// (never when cancelAt < 0), and returns what it read.
func burstyReader(r *rand.Rand, out <-chan any, cancelAt int, cancel func()) []int {
	var got []int
	for burst := 0; ; burst-- {
		if burst == 0 {
			time.Sleep(time.Duration(r.Intn(300)) * time.Microsecond)
			burst = 1 + r.Intn(80)
		}
		v, ok := <-out
		if !ok {
			return got
		}
		got = append(got, v.(int))
		if len(got) == cancelAt {
			cancel()
		}
	}
}

func TestBurstyConsumerProperty(t *testing.T) {
	watchGoroutines(t)
	const items = 600
	// Each shape's reference value of input i, and whether its output
	// keeps input order.
	type shape struct {
		build   func() (*Pipeline, error)
		want    func(i int) int
		ordered bool
	}
	shapes := map[string]shape{
		"chain": {
			build: func() (*Pipeline, error) {
				return New(
					Stage{Fn: inc, Replicas: 3, Buffer: 1},
					Stage{Fn: double, Replicas: 2, Buffer: 2},
					Stage{Fn: inc, Replicas: 2, Buffer: 1},
				)
			},
			want:    func(i int) int { return 2*(i+1) + 1 },
			ordered: true,
		},
		"unordered": {
			build: func() (*Pipeline, error) {
				return New(Stage{Fn: double, Replicas: 3, Buffer: 2, Unordered: true})
			},
			want: func(i int) int { return 2 * i },
		},
	}
	// Each run's starting grain, and the grain the feeder sets halfway
	// through (0: none).
	type regrain struct{ start, then int }
	r := rand.New(rand.NewSource(61))
	for name, sh := range shapes {
		for _, g := range []regrain{{1, 0}, {16, 0}, {64, 0}, {16, 48}} {
			for trial := 0; trial < 4; trial++ {
				// Trials 0 and 1 read to the end; 2 and 3 cancel mid-stream,
				// while the buffer is being filled and drained.
				cancelAt := -1
				if trial >= 2 {
					cancelAt = 1 + r.Intn(items-items/4)
				}
				label := fmt.Sprintf("grain%d", g.start)
				if g.then > 0 {
					label += fmt.Sprintf("to%d", g.then)
				}
				t.Run(fmt.Sprintf("%s/%s/trial%d", name, label, trial), func(t *testing.T) {
					p, err := sh.build()
					if err != nil {
						t.Fatal(err)
					}
					if err := p.EnableBatch(g.start, time.Millisecond); err != nil {
						t.Fatal(err)
					}
					var live atomic.Int64
					p.slabHook = func(d int) { live.Add(int64(d)) }
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					in := make(chan any, ioBuffer)
					go func() {
						defer close(in)
						for i := 0; i < items; i++ {
							if i == items/2 && g.then > 0 {
								if err := p.SetGrain(g.then); err != nil {
									t.Error(err)
									return
								}
							}
							select {
							case in <- i:
							case <-ctx.Done():
								return
							}
						}
					}()
					out, errs := p.Run(ctx, in)
					got := burstyReader(rand.New(rand.NewSource(r.Int63())), out, cancelAt, cancel)
					err = <-errs
					if cancelAt < 0 && err != nil {
						t.Fatalf("err = %v", err)
					}
					if cancelAt >= 0 && !errors.Is(err, context.Canceled) {
						t.Fatalf("err = %v, want context.Canceled", err)
					}
					if cancelAt < 0 && len(got) != items {
						t.Fatalf("delivered %d of %d", len(got), items)
					}
					if len(got) < cancelAt {
						t.Fatalf("delivered %d, cancelled after reading %d", len(got), cancelAt)
					}
					// Ordered: the prefix of the reference. Unordered: each a
					// distinct input's reference value.
					unseen := make(map[int]bool, items)
					for i := 0; i < items; i++ {
						unseen[sh.want(i)] = true
					}
					for k, v := range got {
						if sh.ordered && v != sh.want(k) {
							t.Fatalf("output %d: got %d, want %d", k, v, sh.want(k))
						}
						if !unseen[v] {
							t.Fatalf("output %d: %d is no input's output, or a repeat", k, v)
						}
						delete(unseen, v)
					}
					if n := live.Load(); n != 0 {
						t.Errorf("%d slabs never returned to the pool", n)
					}
				})
			}
		}
	}
}

// TestEgressIdleWhileConsumerKeepsUp: with a consumer that keeps up, the
// stepper that fills the exit queue unpacks it, so the egress goroutine
// parks once at the start of the run and wakes for its end, not once per
// slab as it did while every exit push woke it — nor, at grain 64, as it
// did while the output buffer held 32 items and no slab of 64 fitted.
func TestEgressIdleWhileConsumerKeepsUp(t *testing.T) {
	watchGoroutines(t)
	var read atomic.Int64 // items the consumer has received
	for _, tc := range []struct {
		grain, slabs, replicas int
		work                   func(i int) // item i's stage work
	}{
		{1, 200, 2, func(int) { time.Sleep(50 * time.Microsecond) }}, // slower than the consumer
		// A spin, not a sleep: real stage work keeps its worker. Item i
		// also waits until the consumer has received item i-64, so a
		// finished slab finds at most 63 items in the buffer and fits
		// beside them, however the scheduler treats the consumer.
		{64, 20, 1, func(i int) {
			spin(2 * time.Microsecond)
			for read.Load() <= int64(i-64) {
				runtime.Gosched()
			}
		}},
	} {
		t.Run(fmt.Sprintf("grain%d", tc.grain), func(t *testing.T) {
			p, err := New(Stage{Replicas: tc.replicas, Fn: func(_ context.Context, v any) (any, error) {
				tc.work(v.(int))
				return v, nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnableBatch(tc.grain, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			items := tc.grain * tc.slabs
			in := make(chan any, items)
			for i := 0; i < items; i++ {
				in <- i
			}
			close(in)
			read.Store(0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			out, errs := p.Run(ctx, in)
			n := 0
			for v := range out {
				if v.(int) != n {
					t.Fatalf("output %d: got %v", n, v)
				}
				n++
				read.Store(int64(n))
			}
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
			if n != items {
				t.Fatalf("delivered %d of %d", n, items)
			}
			// The output has closed, after the egress returned.
			parks := p.run.Load().egressParks
			t.Logf("the egress parked %d times in %d slabs of %d", parks, tc.slabs, tc.grain)
			if parks > 3 {
				t.Errorf("the egress parked %d times in a run of %d slabs of %d, want at most 3", parks, tc.slabs, tc.grain)
			}
		})
	}
}

// TestOutputRoomFollowsTheStartingGrain: a run's output holds two slabs
// of the grain it starts at, never fewer than ioBuffer items, and never
// more than maxOutput — a grain no input ever fills still runs.
func TestOutputRoomFollowsTheStartingGrain(t *testing.T) {
	watchGoroutines(t)
	const items = 100
	for _, tc := range []struct{ grain, room int }{
		{1, ioBuffer}, {16, ioBuffer}, {17, 34}, {64, 128}, {1 << 40, maxOutput},
	} {
		p, err := New(Stage{Fn: inc})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.EnableBatch(tc.grain, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		in := make(chan any, items)
		for i := 0; i < items; i++ {
			in <- i
		}
		close(in)
		out, errs := p.Run(context.Background(), in)
		if cap(out) != tc.room {
			t.Errorf("grain %d: output room %d, want %d", tc.grain, cap(out), tc.room)
		}
		n := 0
		for v := range out {
			if v.(int) != n+1 {
				t.Fatalf("grain %d: output %d: got %v", tc.grain, n, v)
			}
			n++
		}
		if err := <-errs; err != nil || n != items {
			t.Fatalf("grain %d: %d of %d outputs, err %v", tc.grain, n, items, err)
		}
	}
}
