package pipeline

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestSetReplicasShrinkGrowChurn: a stage's replica limit is hammered up
// and down while items flow. Every item must still come out, in order,
// and the run must not deadlock — in particular, a grow that makes room
// for several queued slabs at once must fire all of them (the kick
// re-runs fire until flying reaches the new limit), not just one.
func TestSetReplicasShrinkGrowChurn(t *testing.T) {
	const items = 400
	var inFlight, peak atomic.Int64
	p, err := New(Stage{
		Name:     "churn",
		Replicas: 4,
		Fn: func(ctx context.Context, v any) (any, error) {
			c := inFlight.Add(1)
			for {
				hi := peak.Load()
				if c <= hi || peak.CompareAndSwap(hi, c) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			inFlight.Add(-1)
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	in := make(chan any)
	go func() {
		defer close(in)
		for i := 0; i < items; i++ {
			in <- i
		}
	}()
	out, errs := p.Run(context.Background(), in)

	// Churn the limit while the run is live: repeated shrink-to-1 and
	// grow-to-16 transitions race against acquire/release.
	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		limits := []int{1, 16, 2, 8, 1, 12}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				if err := p.SetReplicas(0, limits[i%len(limits)]); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	var got []int
	deadline := time.After(30 * time.Second)
	for i := 0; i < items; i++ {
		select {
		case v, ok := <-out:
			if !ok {
				t.Fatalf("output closed after %d of %d items", len(got), items)
			}
			got = append(got, v.(int))
		case <-deadline:
			t.Fatalf("deadlock: %d of %d items after 30s", len(got), items)
		}
	}
	close(stop)
	<-churned
	if _, ok := <-out; ok {
		t.Fatal("extra item after the last input")
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order violated at %d: got %d", i, v)
		}
	}
	if p := peak.Load(); p > 16 {
		t.Fatalf("peak concurrency %d exceeded the largest limit 16", p)
	}
}

// TestGrowAdmitsAllAtOnce pins the grow through the public API: with the
// limit at 1 and several items queued behind it, one SetReplicas grow
// must let them all run concurrently.
func TestGrowAdmitsAllAtOnce(t *testing.T) {
	const burst = 6
	var inFlight atomic.Int64
	reached := make(chan struct{}, burst)
	release := make(chan struct{})
	p, err := New(Stage{
		Name: "grow",
		Fn: func(ctx context.Context, v any) (any, error) {
			if inFlight.Add(1) == burst {
				close(release)
			}
			reached <- struct{}{}
			<-release // hold until all of the burst is in concurrently
			inFlight.Add(-1)
			return v, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan any, burst)
	for i := 0; i < burst; i++ {
		in <- i
	}
	close(in)
	out, errs := p.Run(context.Background(), in)

	// Wait until the single replica is wedged in the stage function,
	// then grow. Only the grow's kick can fire the remaining burst-1
	// items: no task completes until all of them are in.
	<-reached
	if err := p.SetReplicas(0, burst); err != nil {
		t.Fatal(err)
	}
	count := 0
	deadline := time.After(10 * time.Second)
	for count < burst {
		select {
		case _, ok := <-out:
			if !ok {
				t.Fatalf("output closed at %d of %d", count, burst)
			}
			count++
		case <-deadline:
			t.Fatalf("grow stranded workers: %d of %d done", count, burst)
		}
	}
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
