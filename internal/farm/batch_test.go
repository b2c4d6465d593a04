package farm

// Batched dispatch: tasks cross the farm boundary in slabs without
// changing the skeleton's contract — same outputs, same 1-for-1
// discipline, same error and cancel behaviour — and the linger bound
// keeps sparse streams from waiting on slab fill. The farm has no batch
// option of its own: these tests set the grain on the pipeline it wraps,
// so both of its modes are pinned at every grain that pipeline can run.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// newBatched builds a farm whose tasks travel in slabs of up to grain
// (linger 0 picks the pipeline's default).
func newBatched(t *testing.T, fn Func, opts Options, grain int, linger time.Duration) *Farm {
	t.Helper()
	f, err := New(fn, opts)
	if err == nil {
		err = f.pl.EnableBatch(grain, linger)
	}
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBatchedUnorderedDeliversAll(t *testing.T) {
	watchGoroutines(t)
	for _, batch := range []int{2, 7, 64} {
		f := newBatched(t, func(_ context.Context, v any) (any, error) {
			return v.(int) * 3, nil
		}, Options{Workers: 4, Unordered: true}, batch, 0)
		inputs := make([]any, 200)
		for i := range inputs {
			inputs[i] = i
		}
		got, err := f.Process(context.Background(), inputs)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		ints := make([]int, len(got))
		for i, v := range got {
			ints[i] = v.(int)
		}
		sort.Ints(ints)
		for i, v := range ints {
			if v != i*3 {
				t.Fatalf("batch %d: sorted output %d is %d, want %d", batch, i, v, i*3)
			}
		}
	}
}

func TestBatchedOrderedPreservesOrder(t *testing.T) {
	watchGoroutines(t)
	f := newBatched(t, func(_ context.Context, v any) (any, error) {
		return v.(int) + 100, nil
	}, Options{Workers: 4}, 16, 0)
	inputs := make([]any, 150)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := f.Process(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v.(int) != i+100 {
			t.Fatalf("output %d: got %v, want %d", i, v, i+100)
		}
	}
}

func TestSetBatchWhileRunning(t *testing.T) {
	watchGoroutines(t)
	// The ordered farm starts at the default grain of 1: SetGrain works
	// on it all the same, there is no batched wiring to have opted into.
	for _, unordered := range []bool{true, false} {
		grain := 1
		if unordered {
			grain = 4
		}
		f := newBatched(t, func(_ context.Context, v any) (any, error) {
			return v, nil
		}, Options{Workers: 2, Unordered: unordered}, grain, 0)
		in := make(chan any)
		out, errs := f.Run(context.Background(), in)
		go func() {
			defer close(in)
			for i := 0; i < 300; i++ {
				in <- i
				if i == 100 {
					if err := f.pl.SetGrain(1); err != nil {
						panic(err)
					}
				}
				if i == 200 {
					if err := f.pl.SetGrain(32); err != nil {
						panic(err)
					}
				}
			}
		}()
		count := 0
		for range out {
			count++
		}
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
		if count != 300 {
			t.Fatalf("unordered=%v: lost items: %d of 300", unordered, count)
		}
		if g := f.pl.Grain(); g != 32 {
			t.Errorf("unordered=%v: grain = %d after SetGrain(32)", unordered, g)
		}
	}
}

func TestBatchedErrorPropagation(t *testing.T) {
	watchGoroutines(t)
	boom := fmt.Errorf("boom")
	f := newBatched(t, func(_ context.Context, v any) (any, error) {
		if v.(int) == 37 {
			return nil, boom
		}
		return v, nil
	}, Options{Workers: 2, Unordered: true}, 8, 0)
	inputs := make([]any, 100)
	for i := range inputs {
		inputs[i] = i
	}
	if _, err := f.Process(context.Background(), inputs); err == nil {
		t.Fatal("expected mid-slab error to surface")
	}
}

func TestFarmTrickleNeverWaitsLongerThanLinger(t *testing.T) {
	watchGoroutines(t)
	const (
		batch  = 64
		linger = 10 * time.Millisecond
		gap    = 25 * time.Millisecond
		items  = 12
	)
	f := newBatched(t, func(_ context.Context, v any) (any, error) {
		return v, nil
	}, Options{Workers: 4, Unordered: true}, batch, linger)
	in := make(chan any)
	out, errs := f.Run(context.Background(), in)
	sent := make([]time.Time, items)
	go func() {
		defer close(in)
		for i := 0; i < items; i++ {
			sent[i] = time.Now()
			in <- i
			time.Sleep(gap)
		}
	}()
	// One task per 25 ms against a 64-task slab: fill would take
	// ~1.6 s, the linger must flush within ~10 ms. Generous slack for
	// loaded single-CPU runners, still far below fill time.
	const bound = 250 * time.Millisecond
	count := 0
	for v := range out {
		if d := time.Since(sent[v.(int)]); d > bound {
			t.Errorf("task %v waited %v, want < %v (slab fill would be %v)",
				v, d, bound, time.Duration(batch)*gap)
		}
		count++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if count != items {
		t.Fatalf("lost tasks: %d of %d", count, items)
	}
}

// TestFarmBatchWorkersConcurrent is the mid-flight actuation
// regression test (pipeline counterpart:
// TestGrainResizeConcurrentMidFlight): SetGrain racing SetWorkers on a
// running ordered farm must stay race-free and never drop or reorder
// a task.
func TestFarmBatchWorkersConcurrent(t *testing.T) {
	watchGoroutines(t)
	f := newBatched(t, func(_ context.Context, v any) (any, error) {
		return v, nil
	}, Options{Workers: 2, Buffer: 16}, 4, 0)
	const items = 30000
	in := make(chan any, 64)
	out, errs := f.Run(context.Background(), in)
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
		batches := []int{1, 2, 8, 32}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				if err := f.pl.SetGrain(batches[i%len(batches)]); err != nil {
					t.Errorf("SetGrain: %v", err)
					return
				}
			} else {
				if err := f.SetWorkers(1 + i%4); err != nil {
					t.Errorf("SetWorkers: %v", err)
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
		t.Fatalf("lost tasks: %d of %d", seen, items)
	}
}
