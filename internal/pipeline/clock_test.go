package pipeline

import (
	"context"
	"testing"
	"time"
)

// spin busy-waits d: unlike a sleep it never ends early or much late, so
// a stage built on it costs at least d per item and little more.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestStageClockSampling pins the stage clock (apply): counts are exact
// at any grain; a stage whose slabs take at least clockFloor is timed on
// every slab; a cheaper stage's untimed slabs are charged the per-item
// time of its last timed one, not nothing; and a stage that turns slow
// is timed on every slab again within clockEvery slabs (one replica, so
// no slab runs beside the one that sees the turn). At grain 1 a
// slab's index is its item's sequence number, so item v is timed by the
// sampling rule exactly when v%clockEvery == 0.
func TestStageClockSampling(t *testing.T) {
	run := func(t *testing.T, grain, items int, fn Func) (int64, time.Duration) {
		t.Helper()
		p, err := New(Stage{Name: "s", Fn: fn})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.SetGrain(grain); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Process(context.Background(), ints(items)); err != nil {
			t.Fatal(err)
		}
		return p.StageTotals(0)
	}

	// A 1 µs item is below clockFloor at both grains; every slab, timed or
	// not, is charged at least its items' spin.
	const work = time.Microsecond
	for _, grain := range []int{1, 4} {
		const items = 203 // at grain 4, a partial slab at the tail
		count, sum := run(t, grain, items, func(_ context.Context, v any) (any, error) {
			spin(work)
			return v, nil
		})
		if count != items {
			t.Errorf("grain %d: count %d, want %d", grain, count, items)
		}
		if min := items * work; sum < min {
			t.Errorf("grain %d: sum %v below the %v the items spun: untimed slabs charged too little", grain, sum, min)
		}
	}

	// Every item takes at least 50 µs, and the ones the sampling rule
	// times take the least: they spin 50 µs, the 35 others sleep 2 ms.
	// Only timing every slab accounts for all of it.
	_, sum := run(t, 1, 40, func(_ context.Context, v any) (any, error) {
		if v.(int)%clockEvery == 0 {
			spin(50 * time.Microsecond)
		} else {
			time.Sleep(2 * time.Millisecond)
		}
		return v, nil
	})
	if least := 5*50*time.Microsecond + 35*2*time.Millisecond; sum < least {
		t.Errorf("slow stage: sum %v below the %v its items took at least: a slab over clockFloor went untimed", sum, least)
	}

	// Cheap until item 65, then 200 µs an item: the next slab the sampling
	// rule times is 72, and from there the stage is over clockFloor.
	const turn, caught, items = 65, 72, 96
	_, sum = run(t, 1, items, func(_ context.Context, v any) (any, error) {
		if v.(int) >= turn {
			spin(200 * time.Microsecond)
		}
		return v, nil
	})
	if min := (items - caught) * 200 * time.Microsecond; sum < min {
		t.Errorf("stage turned slow: sum %v below the %v of the slabs after it caught up", sum, min)
	}
}

// TestSetReplicasHugeLimit: the limit holds any n SetReplicas accepts,
// including 1<<31, which an int32 would turn negative, stalling the stage.
func TestSetReplicasHugeLimit(t *testing.T) {
	p, err := New(Stage{Name: "s", Fn: double})
	if err != nil {
		t.Fatal(err)
	}
	const huge = 1 << 31
	if err := p.SetReplicas(0, huge); err != nil {
		t.Fatal(err)
	}
	if got := p.Replicas(0); got != huge {
		t.Fatalf("Replicas = %d, want %d", got, huge)
	}
	out, err := p.Process(context.Background(), ints(100))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 100 {
		t.Fatalf("%d outputs for 100 inputs", len(out))
	}
}
