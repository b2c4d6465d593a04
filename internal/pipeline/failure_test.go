package pipeline

// Failure containment: what a failing or panicking stage may cost. It
// costs its own run — an error naming the stage and item, an ordered
// prefix of the output — and nothing else: no goroutine outlives the
// run, and the process-wide executor's workers, which every other
// pipeline in the process shares, keep running.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestProcessFailureLeavesNoFeeder: when a stage fails, Run cancels only
// the context it derived, so a feeder selecting on the caller's context
// would block on its next send forever, pinning the input slice.
func TestProcessFailureLeavesNoFeeder(t *testing.T) {
	watchGoroutines(t)
	boom := errors.New("boom")
	inputs := make([]any, 1000)
	for i := range inputs {
		inputs[i] = i
	}
	for run := 0; run < 20; run++ {
		p, err := New(Stage{Name: "fails", Fn: func(_ context.Context, v any) (any, error) {
			if v.(int) == 3 {
				return nil, boom
			}
			return v, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Process(context.Background(), inputs); !errors.Is(err, boom) {
			t.Fatalf("run %d: err = %v, want boom", run, err)
		}
	}
}

// TestStagePanicIsContained: a stage that panics on item k fails its own
// run and delivers an ordered prefix (an unordered stage, a farm's: no
// item twice, and never item k), while a second pipeline running
// concurrently on the same default executor completes with every item.
func TestStagePanicIsContained(t *testing.T) {
	watchGoroutines(t)
	const items, k = 2000, 137
	for _, c := range []struct {
		name      string
		grain     int
		unordered bool
	}{{"grain1", 1, false}, {"grain16", 16, false}, {"unordered/grain1", 1, true}, {"unordered/grain16", 16, true}} {
		t.Run(c.name, func(t *testing.T) {
			ident := func(_ context.Context, v any) (any, error) { return v, nil }
			stages := []Stage{
				{Name: "pre", Fn: ident, Replicas: 2},
				{Name: "explodes", Replicas: 3, Unordered: c.unordered, Fn: func(_ context.Context, v any) (any, error) {
					if v.(int) == k {
						panic("kaboom")
					}
					return v, nil
				}},
			}
			if c.unordered {
				stages = stages[1:]
			}
			bad, err := New(stages...)
			if err != nil {
				t.Fatal(err)
			}
			good, err := New(
				Stage{Name: "a", Fn: ident, Replicas: 2},
				Stage{Name: "b", Fn: ident, Replicas: 2},
			)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*Pipeline{bad, good} {
				if err := p.EnableBatch(c.grain, 0); err != nil {
					t.Fatal(err)
				}
			}

			feed := func(ctx context.Context) <-chan any {
				in := make(chan any)
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
				return in
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			goodOut, goodErrs := good.Run(ctx, feed(ctx))
			badOut, badErrs := bad.Run(ctx, feed(ctx))

			seen, delivered := 0, make([]bool, items)
			for v := range badOut {
				if !c.unordered && v.(int) != seen {
					t.Fatalf("panicking pipeline output %d: got %v (not an ordered prefix)", seen, v)
				}
				if delivered[v.(int)] || v.(int) == k {
					t.Fatalf("panicking pipeline output %d: got %v, the item that panicked or one already delivered", seen, v)
				}
				delivered[v.(int)] = true
				seen++
			}
			if !c.unordered && seen > k {
				t.Errorf("panicking pipeline delivered %d items, past the item that panicked (%d)", seen, k)
			}
			err = <-badErrs
			if err == nil {
				t.Fatal("panicking pipeline reported no error")
			}
			for _, want := range []string{"stage explodes", fmt.Sprintf("item %d", k), "kaboom", "failure_test.go"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error lacks %q:\n%v", want, err)
				}
			}

			seen = 0
			for v := range goodOut {
				if v.(int) != seen {
					t.Fatalf("bystander pipeline output %d: got %v", seen, v)
				}
				seen++
			}
			if err := <-goodErrs; err != nil {
				t.Fatalf("bystander pipeline: %v", err)
			}
			if seen != items {
				t.Fatalf("bystander pipeline delivered %d of %d items", seen, items)
			}
		})
	}
}
