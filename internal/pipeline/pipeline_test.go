package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func double(ctx context.Context, v any) (any, error) { return v.(int) * 2, nil }
func inc(ctx context.Context, v any) (any, error)    { return v.(int) + 1, nil }

func ints(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestProcessBasic(t *testing.T) {
	p, err := New(
		Stage{Name: "double", Fn: double},
		Stage{Name: "inc", Fn: inc},
	)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Process(context.Background(), ints(10))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.(int) != i*2+1 {
			t.Fatalf("out[%d] = %v, want %d", i, v, i*2+1)
		}
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(); err == nil {
		t.Fatal("no stages accepted")
	}
	if _, err := New(Stage{Name: "x"}); err == nil {
		t.Fatal("nil Fn accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	p, err := New(Stage{Fn: double})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st[0].Name != "stage0" || st[0].Replicas != 1 {
		t.Fatalf("defaults wrong: %+v", st[0])
	}
}

func TestOrderPreservedUnderReplication(t *testing.T) {
	// Random per-item delays in a replicated stage must not reorder
	// outputs.
	p, err := New(Stage{
		Name:     "jitter",
		Replicas: 8,
		Fn: func(ctx context.Context, v any) (any, error) {
			time.Sleep(time.Duration(v.(int)%7) * time.Millisecond)
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Process(context.Background(), ints(200))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.(int) != i {
			t.Fatalf("order broken at %d: got %v", i, v)
		}
	}
}

func TestReplicationActuallyParallel(t *testing.T) {
	var inFlight, peak int64
	p, err := New(Stage{
		Name:     "slow",
		Replicas: 4,
		Fn: func(ctx context.Context, v any) (any, error) {
			cur := atomic.AddInt64(&inFlight, 1)
			for {
				old := atomic.LoadInt64(&peak)
				if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			atomic.AddInt64(&inFlight, -1)
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), ints(32)); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&peak) < 2 {
		t.Fatalf("replicated stage never ran concurrently (peak %d)", peak)
	}
	if atomic.LoadInt64(&peak) > 4 {
		t.Fatalf("replica limit exceeded (peak %d)", peak)
	}
}

func TestErrorPropagatesAndStops(t *testing.T) {
	boom := errors.New("boom")
	var processed int64
	p, err := New(
		Stage{Name: "a", Fn: func(ctx context.Context, v any) (any, error) {
			atomic.AddInt64(&processed, 1)
			if v.(int) == 5 {
				return nil, boom
			}
			return v, nil
		}},
		Stage{Name: "b", Fn: inc},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Process(context.Background(), ints(1000))
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error lost cause: %v", err)
	}
	if atomic.LoadInt64(&processed) > 900 {
		t.Fatalf("pipeline did not stop early (%d processed)", processed)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p, err := New(Stage{Name: "slow", Fn: func(ctx context.Context, v any) (any, error) {
		select {
		case <-time.After(50 * time.Millisecond):
			return v, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = p.Process(ctx, ints(100))
	if err == nil {
		t.Fatal("expected cancellation error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not propagate promptly")
	}
}

func TestRunStreaming(t *testing.T) {
	p, err := New(Stage{Fn: double})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any)
	out, errs := p.Run(context.Background(), in)
	go func() {
		for i := 0; i < 5; i++ {
			in <- i
		}
		close(in)
	}()
	var got []int
	for v := range out {
		got = append(got, v.(int))
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4] != 8 {
		t.Fatalf("got %v", got)
	}
}

func TestRunTwicePanics(t *testing.T) {
	p, err := New(Stage{Fn: double})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any)
	close(in)
	out, errs := p.Run(context.Background(), in)
	for range out {
	}
	<-errs
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on second Run")
		}
	}()
	p.Run(context.Background(), in)
}

func TestSetReplicasLive(t *testing.T) {
	release := make(chan struct{})
	var started int64
	p, err := New(Stage{
		Name:     "gate",
		Replicas: 1,
		Fn: func(ctx context.Context, v any) (any, error) {
			atomic.AddInt64(&started, 1)
			select {
			case <-release:
				return v, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any, 8)
	for i := 0; i < 4; i++ {
		in <- i
	}
	close(in)
	out, errs := p.Run(context.Background(), in)

	// With 1 replica only one item starts.
	deadline := time.After(2 * time.Second)
	for atomic.LoadInt64(&started) < 1 {
		select {
		case <-deadline:
			t.Fatal("first item never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if n := atomic.LoadInt64(&started); n != 1 {
		t.Fatalf("replicas=1 but %d items in flight", n)
	}
	// Growing the limit lets more items start while the first is stuck.
	if err := p.SetReplicas(0, 4); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(2 * time.Second)
	for atomic.LoadInt64(&started) < 4 {
		select {
		case <-deadline:
			t.Fatalf("grow did not take effect (started=%d)", started)
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	count := 0
	for range out {
		count++
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("got %d outputs", count)
	}
}

func TestSetReplicasValidation(t *testing.T) {
	p, err := New(Stage{Fn: double})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicas(5, 1); err == nil {
		t.Fatal("invalid stage accepted")
	}
	if err := p.SetReplicas(0, 0); err == nil {
		t.Fatal("zero replicas accepted")
	}
	// The readers take the same index check instead of panicking.
	for _, i := range []int{-1, 1} {
		if n := p.Replicas(i); n != 0 {
			t.Errorf("Replicas(%d) = %d, want 0", i, n)
		}
		if c, s := p.StageTotals(i); c != 0 || s != 0 {
			t.Errorf("StageTotals(%d) = %d, %v, want zeros", i, c, s)
		}
	}
	// The grain knob refuses a size below 1 the same way, and reads back.
	if err := p.EnableBatch(0, 0); err == nil {
		t.Error("EnableBatch(0) accepted")
	}
	if err := p.SetGrain(0); err == nil {
		t.Error("SetGrain(0) accepted")
	}
	if err := p.SetGrain(8); err != nil || p.Grain() != 8 {
		t.Errorf("SetGrain(8): %v, Grain() = %d", err, p.Grain())
	}
}

func TestStatsCountAndTiming(t *testing.T) {
	p, err := New(Stage{Name: "work", Fn: func(ctx context.Context, v any) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return v, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Process(context.Background(), ints(20)); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()[0]
	if st.Count != 20 {
		t.Fatalf("Count = %d", st.Count)
	}
	if st.MeanService < time.Millisecond {
		t.Fatalf("MeanService = %v implausibly small", st.MeanService)
	}
	if st.MaxService < st.MeanService {
		t.Fatalf("Max %v < Mean %v", st.MaxService, st.MeanService)
	}
}

func TestEmptyInput(t *testing.T) {
	p, err := New(Stage{Fn: double})
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Process(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("got %v", out)
	}
}

// Property: for any replica counts and stage count, the pipeline is
// 1-for-1 and order preserving.
func TestOneForOneProperty(t *testing.T) {
	f := func(nStagesRaw, replicasRaw, nItemsRaw uint8) bool {
		nStages := int(nStagesRaw%3) + 1
		replicas := int(replicasRaw%4) + 1
		nItems := int(nItemsRaw % 50)
		var stages []Stage
		for s := 0; s < nStages; s++ {
			stages = append(stages, Stage{
				Replicas: replicas,
				Fn: func(ctx context.Context, v any) (any, error) {
					return v.(int) + 1, nil
				},
			})
		}
		p, err := New(stages...)
		if err != nil {
			return false
		}
		out, err := p.Process(context.Background(), ints(nItems))
		if err != nil {
			return false
		}
		if len(out) != nItems {
			return false
		}
		for i, v := range out {
			if v.(int) != i+nStages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyItemsStress(t *testing.T) {
	p, err := New(
		Stage{Name: "a", Replicas: 4, Fn: inc},
		Stage{Name: "b", Replicas: 2, Fn: double},
		Stage{Name: "c", Fn: inc},
	)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	out, err := p.Process(context.Background(), ints(n))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := (i+1)*2 + 1; v.(int) != want {
			t.Fatalf("out[%d] = %v, want %d", i, v, want)
		}
	}
}

func TestErrorIdentifiesStageAndItem(t *testing.T) {
	p, err := New(Stage{Name: "checker", Fn: func(ctx context.Context, v any) (any, error) {
		if v.(int) == 3 {
			return nil, fmt.Errorf("bad item")
		}
		return v, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Process(context.Background(), ints(10))
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if want := "checker"; !contains(msg, want) {
		t.Fatalf("error %q does not name the stage", msg)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}
