package pipeline

// The unpack rule: a stepper that finds the front exit slab fitting the
// output buffer's free room sends its items itself, and the egress
// goroutine only takes what does not fit, the end of the run and a
// cancellation. A consumer that reads in bursts and stalls makes the
// buffer fill and drain, so both parties unpack, at a grain below the
// buffer (1, 16: the rule takes most slabs) and above it (64: the egress
// takes every slab). A send on the output after it closed would panic
// the run's goroutine and with it the test binary.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	r := rand.New(rand.NewSource(61))
	for name, sh := range shapes {
		for _, grain := range []int{1, 16, 64} {
			for trial := 0; trial < 4; trial++ {
				// Trials 0 and 1 read to the end; 2 and 3 cancel mid-stream,
				// while the buffer is being filled and drained.
				cancelAt := -1
				if trial >= 2 {
					cancelAt = 1 + r.Intn(items-items/4)
				}
				t.Run(fmt.Sprintf("%s/grain%d/trial%d", name, grain, trial), func(t *testing.T) {
					p, err := sh.build()
					if err != nil {
						t.Fatal(err)
					}
					if err := p.EnableBatch(grain, time.Millisecond); err != nil {
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
// slab as it did while every exit push woke it.
func TestEgressIdleWhileConsumerKeepsUp(t *testing.T) {
	watchGoroutines(t)
	const items = 200
	p, err := New(Stage{Replicas: 2, Fn: func(_ context.Context, v any) (any, error) {
		time.Sleep(50 * time.Microsecond) // slower than the consumer
		return v, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Process(context.Background(), ints(items))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v.(int) != i {
			t.Fatalf("output %d: got %v", i, v)
		}
	}
	// Process has returned: the output has closed, after the egress did.
	parks := p.run.Load().egressParks
	t.Logf("the egress parked %d times in %d slabs", parks, items)
	if parks > 3 {
		t.Errorf("the egress parked %d times in a run of %d slabs of one, want at most 3", parks, items)
	}
}
