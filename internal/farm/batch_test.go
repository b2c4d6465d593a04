package farm

// Batched dispatch: tasks cross the farm boundary in slabs without
// changing the skeleton's contract — same outputs, same 1-for-1
// discipline, same error and cancel behaviour — and the linger bound
// keeps sparse streams from waiting on slab fill.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

func TestBatchedUnorderedDeliversAll(t *testing.T) {
	watchGoroutines(t)
	for _, batch := range []int{2, 7, 64} {
		f, err := New(func(_ context.Context, v any) (any, error) {
			return v.(int) * 3, nil
		}, Options{Workers: 4, Unordered: true, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
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
	f, err := New(func(_ context.Context, v any) (any, error) {
		return v.(int) + 100, nil
	}, Options{Workers: 4, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
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

func TestBatchValidation(t *testing.T) {
	watchGoroutines(t)
	ident := func(_ context.Context, v any) (any, error) { return v, nil }
	if _, err := New(ident, Options{Batch: -1}); err == nil {
		t.Error("negative batch accepted")
	}
	f, err := New(ident, Options{Batch: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f.Batch() != 1 {
		t.Errorf("zero batch defaulted to %d, want 1", f.Batch())
	}
	if err := f.SetBatch(0); err == nil {
		t.Error("SetBatch(0) accepted")
	}
	if err := f.SetBatch(8); err != nil {
		t.Fatal(err)
	}
	if f.Batch() != 8 {
		t.Errorf("Batch() = %d after SetBatch(8)", f.Batch())
	}
}

func TestSetBatchWhileRunning(t *testing.T) {
	watchGoroutines(t)
	// The ordered farm starts at the default batch of 1: SetBatch works
	// on it all the same, there is no batched wiring to have opted into.
	for _, opts := range []Options{
		{Workers: 2, Unordered: true, Batch: 4},
		{Workers: 2},
	} {
		f, err := New(func(_ context.Context, v any) (any, error) {
			return v, nil
		}, opts)
		if err != nil {
			t.Fatal(err)
		}
		in := make(chan any)
		out, errs := f.Run(context.Background(), in)
		go func() {
			defer close(in)
			for i := 0; i < 300; i++ {
				in <- i
				if i == 100 {
					if err := f.SetBatch(1); err != nil {
						panic(err)
					}
				}
				if i == 200 {
					if err := f.SetBatch(32); err != nil {
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
			t.Fatalf("unordered=%v: lost items: %d of 300", opts.Unordered, count)
		}
		if f.Batch() != 32 {
			t.Errorf("unordered=%v: Batch() = %d after SetBatch(32)", opts.Unordered, f.Batch())
		}
	}
}

func TestBatchedErrorPropagation(t *testing.T) {
	watchGoroutines(t)
	boom := fmt.Errorf("boom")
	f, err := New(func(_ context.Context, v any) (any, error) {
		if v.(int) == 37 {
			return nil, boom
		}
		return v, nil
	}, Options{Workers: 2, Unordered: true, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
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
	f, err := New(func(_ context.Context, v any) (any, error) {
		return v, nil
	}, Options{Workers: 4, Unordered: true, Batch: batch, Linger: linger})
	if err != nil {
		t.Fatal(err)
	}
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
// TestGrainResizeConcurrentMidFlight): SetBatch racing SetWorkers on a
// running ordered farm must stay race-free and never drop or reorder
// a task.
func TestFarmBatchWorkersConcurrent(t *testing.T) {
	watchGoroutines(t)
	f, err := New(func(_ context.Context, v any) (any, error) {
		return v, nil
	}, Options{Workers: 2, Buffer: 16, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
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
				if err := f.SetBatch(batches[i%len(batches)]); err != nil {
					t.Errorf("SetBatch: %v", err)
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
