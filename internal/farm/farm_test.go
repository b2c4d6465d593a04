package farm

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func double(ctx context.Context, v any) (any, error) { return v.(int) * 2, nil }

func ints(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil fn accepted")
	}
	f, err := New(double, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Workers != 1 {
		t.Fatalf("default workers = %d", st.Workers)
	}
}

func TestOrderedProcess(t *testing.T) {
	f, err := New(func(ctx context.Context, v any) (any, error) {
		time.Sleep(time.Duration(v.(int)%5) * time.Millisecond)
		return v.(int) * 2, nil
	}, Options{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Process(context.Background(), ints(100))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.(int) != i*2 {
			t.Fatalf("order broken at %d: %v", i, v)
		}
	}
	if st := f.Stats(); st.Done != 100 {
		t.Fatalf("Done = %d", st.Done)
	}
}

func TestUnorderedDeliversAll(t *testing.T) {
	f, err := New(func(ctx context.Context, v any) (any, error) {
		time.Sleep(time.Duration((13*v.(int))%7) * time.Millisecond)
		return v, nil
	}, Options{Workers: 8, Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Process(context.Background(), ints(60))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(out))
	for i, v := range out {
		got[i] = v.(int)
	}
	sort.Ints(got)
	for i, v := range got {
		if v != i {
			t.Fatalf("multiset broken: %v", got)
		}
	}
	if st := f.Stats(); st.Done != 60 || st.MeanService <= 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestUnorderedParallelism(t *testing.T) {
	var inFlight, peak int64
	f, err := New(func(ctx context.Context, v any) (any, error) {
		cur := atomic.AddInt64(&inFlight, 1)
		for {
			old := atomic.LoadInt64(&peak)
			if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
				break
			}
		}
		time.Sleep(3 * time.Millisecond)
		atomic.AddInt64(&inFlight, -1)
		return v, nil
	}, Options{Workers: 4, Unordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Process(context.Background(), ints(24)); err != nil {
		t.Fatal(err)
	}
	if p := atomic.LoadInt64(&peak); p < 2 || p > 4 {
		t.Fatalf("peak parallelism %d outside [2, 4]", p)
	}
}

func TestErrorPropagation(t *testing.T) {
	// Process must not leave its feeder blocked when the run fails.
	watchGoroutines(t)
	boom := errors.New("boom")
	for _, unordered := range []bool{false, true} {
		f, err := New(func(ctx context.Context, v any) (any, error) {
			if v.(int) == 7 {
				return nil, boom
			}
			return v, nil
		}, Options{Workers: 3, Unordered: unordered})
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Process(context.Background(), ints(50))
		if err == nil || !errors.Is(err, boom) {
			t.Fatalf("unordered=%v: err = %v", unordered, err)
		}
	}
}

func TestContextCancel(t *testing.T) {
	for _, unordered := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		f, err := New(func(ctx context.Context, v any) (any, error) {
			select {
			case <-time.After(50 * time.Millisecond):
				return v, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}, Options{Workers: 2, Unordered: unordered})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(5 * time.Millisecond)
			cancel()
		}()
		if _, err := f.Process(ctx, ints(100)); err == nil {
			t.Fatalf("unordered=%v: expected cancellation error", unordered)
		}
	}
}

func TestSetWorkersLiveGrow(t *testing.T) {
	release := make(chan struct{})
	var started int64
	f, err := New(func(ctx context.Context, v any) (any, error) {
		atomic.AddInt64(&started, 1)
		select {
		case <-release:
			return v, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, Options{Workers: 1, Unordered: true, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 4)
	for i := 0; i < 4; i++ {
		in <- i
	}
	close(in)
	out, errs := f.Run(context.Background(), in)
	waitFor(t, func() bool { return atomic.LoadInt64(&started) == 1 })
	if err := f.SetWorkers(4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return atomic.LoadInt64(&started) == 4 })
	close(release)
	n := 0
	for range out {
		n++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("outputs = %d", n)
	}
	if st := f.Stats(); st.Workers != 4 {
		t.Fatalf("Workers = %d", st.Workers)
	}
}

func TestSetWorkersOrderedMode(t *testing.T) {
	f, err := New(double, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 2)
	in <- 1
	in <- 2
	close(in)
	out, errs := f.Run(context.Background(), in)
	if err := f.SetWorkers(3); err != nil {
		t.Fatal(err)
	}
	for range out {
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Workers != 3 {
		t.Fatalf("Workers = %d", st.Workers)
	}
}

func TestSetWorkersValidation(t *testing.T) {
	f, _ := New(double, Options{})
	if err := f.SetWorkers(0); err == nil {
		t.Fatal("zero workers accepted")
	}
	// Resizing before Run adjusts the initial count.
	if err := f.SetWorkers(5); err != nil {
		t.Fatal(err)
	}
	if st := f.Stats(); st.Workers != 5 {
		t.Fatalf("Workers = %d", st.Workers)
	}
}

func TestRunTwicePanics(t *testing.T) {
	f, _ := New(double, Options{})
	in := make(chan any)
	close(in)
	out, errs := f.Run(context.Background(), in)
	for range out {
	}
	<-errs
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.Run(context.Background(), in)
}

func TestEmptyInput(t *testing.T) {
	for _, unordered := range []bool{false, true} {
		f, _ := New(double, Options{Unordered: unordered})
		out, err := f.Process(context.Background(), nil)
		if err != nil || len(out) != 0 {
			t.Fatalf("unordered=%v: %v %v", unordered, out, err)
		}
	}
}

// Property: for any worker count and mode, the farm is 1-for-1 on the
// multiset of results.
func TestOneForOneProperty(t *testing.T) {
	f := func(workersRaw, nRaw uint8, unordered bool) bool {
		workers := int(workersRaw%6) + 1
		n := int(nRaw % 60)
		fm, err := New(func(ctx context.Context, v any) (any, error) {
			return v.(int) + 1000, nil
		}, Options{Workers: workers, Unordered: unordered})
		if err != nil {
			return false
		}
		out, err := fm.Process(context.Background(), ints(n))
		if err != nil || len(out) != n {
			return false
		}
		got := make([]int, n)
		for i, v := range out {
			got[i] = v.(int) - 1000
		}
		sort.Ints(got)
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for !cond() {
		select {
		case <-deadline:
			t.Fatal("condition never became true")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}
