package farm

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// hammerWorkers drives SetWorkers up and down from a separate
// goroutine until stop closes — the live adaptive controller's
// actuation pattern at a hostile cadence.
func hammerWorkers(t *testing.T, f *Farm, stop <-chan struct{}, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := f.SetWorkers(1 + rng.Intn(10)); err != nil {
				panic(err)
			}
			if i%16 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
}

// TestResizeUnderFlightOrdered hammers SetWorkers while an ordered
// farm streams: 1-for-1 in-order delivery must survive (ordered mode
// delegates to the pipeline's reorder ring). Run under -race in CI.
func TestResizeUnderFlightOrdered(t *testing.T) {
	f, err := New(func(ctx context.Context, v any) (any, error) {
		d := time.Duration(v.(int)%5) * time.Microsecond
		t0 := time.Now()
		for time.Since(t0) < d {
		}
		return v, nil
	}, Options{Workers: 3, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammerWorkers(t, f, stop, &wg)

	const tasks = 5000
	in := make(chan any, 32)
	go func() {
		defer close(in)
		for i := 0; i < tasks; i++ {
			in <- i
		}
	}()
	out, errs := f.Run(context.Background(), in)
	seen := 0
	for v := range out {
		if v.(int) != seen {
			t.Fatalf("out of order: got %v at position %d", v, seen)
		}
		seen++
	}
	close(stop)
	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if seen != tasks {
		t.Fatalf("delivered %d of %d", seen, tasks)
	}
}

// TestResizeUnderFlightUnordered hammers SetWorkers on an unordered
// farm: every task must be delivered exactly once.
func TestResizeUnderFlightUnordered(t *testing.T) {
	f, err := New(func(ctx context.Context, v any) (any, error) {
		return v, nil
	}, Options{Workers: 2, Buffer: 8, Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammerWorkers(t, f, stop, &wg)

	const tasks = 5000
	in := make(chan any, 32)
	go func() {
		defer close(in)
		for i := 0; i < tasks; i++ {
			in <- i
		}
	}()
	out, errs := f.Run(context.Background(), in)
	got := make([]bool, tasks)
	n := 0
	for v := range out {
		i := v.(int)
		if got[i] {
			t.Fatalf("task %d delivered twice", i)
		}
		got[i] = true
		n++
	}
	close(stop)
	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n != tasks {
		t.Fatalf("delivered %d of %d", n, tasks)
	}
}
