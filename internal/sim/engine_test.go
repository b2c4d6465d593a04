package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	for e.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("final time = %v", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	var e Engine
	var got []string
	e.Schedule(1, func() { got = append(got, "a") })
	e.Schedule(1, func() { got = append(got, "b") })
	e.Schedule(1, func() { got = append(got, "c") })
	for e.Step() {
	}
	if got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("tie order = %v", got)
	}
}

func TestNestedScheduling(t *testing.T) {
	var e Engine
	var times []float64
	e.Schedule(1, func() {
		times = append(times, e.Now())
		e.Schedule(1, func() {
			times = append(times, e.Now())
		})
	})
	for e.Step() {
	}
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
}

// The zero Event is inert.
func TestZeroEventIsInert(t *testing.T) {
	var ev Event
	ev.Cancel()
	if ev.Cancelled() || ev.Pending() {
		t.Fatal("the zero Event reads as cancelled or pending")
	}
}

func TestCancel(t *testing.T) {
	var e Engine
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	ev.Cancel()
	if !ev.Cancelled() {
		t.Fatal("Cancelled() should be true")
	}
	for e.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel is fine.
	ev.Cancel()
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var got []float64
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(5, func() { got = append(got, 5) })
	e.RunUntil(3)
	if len(got) != 1 || e.Now() != 3 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
	// Event exactly at the boundary fires.
	e.Schedule(0, func() { got = append(got, 3) })
	e.RunUntil(3)
	if len(got) != 2 {
		t.Fatalf("boundary event did not fire: %v", got)
	}
	e.RunUntil(10)
	if len(got) != 3 || e.Now() != 10 {
		t.Fatalf("got=%v now=%v", got, e.Now())
	}
}

func TestRunUntilBackwardsPanics(t *testing.T) {
	var e Engine
	e.Schedule(2, func() {})
	for e.Step() {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.RunUntil(1)
}

func TestSchedulePanics(t *testing.T) {
	var e Engine
	for _, d := range []float64{-1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for delay %v", d)
				}
			}()
			e.Schedule(d, func() {})
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for nil fn")
			}
		}()
		e.Schedule(1, nil)
	}()
}

func TestNextEventTime(t *testing.T) {
	var e Engine
	if _, ok := e.peek(); ok {
		t.Fatal("empty calendar should report none")
	}
	ev := e.Schedule(2, func() {})
	if tm, ok := e.peek(); !ok || tm != 2 {
		t.Fatalf("next event time = %v,%v", tm, ok)
	}
	ev.Cancel()
	if _, ok := e.peek(); ok {
		t.Fatal("cancelled event should be skipped")
	}
}

func TestPendingAndStepOnEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Fatal("Step on empty should be false")
	}
	e.Schedule(1, func() {})
	if len(e.heap) != 1 {
		t.Fatalf("queued = %d", len(e.heap))
	}
}

func TestTicker(t *testing.T) {
	var e Engine
	var ticks []float64
	tk := NewTicker(&e, 2, func(now float64) {
		ticks = append(ticks, now)
	})
	e.Schedule(7, func() { tk.Stop() })
	for e.Step() {
	}
	if len(ticks) != 3 || ticks[0] != 2 || ticks[1] != 4 || ticks[2] != 6 {
		t.Fatalf("ticks = %v", ticks)
	}
}

func TestTickerStopInsideCallback(t *testing.T) {
	var e Engine
	count := 0
	var tk *Ticker
	tk = NewTicker(&e, 1, func(now float64) {
		count++
		if count == 2 {
			tk.Stop()
		}
	})
	for e.Step() {
	}
	if count != 2 {
		t.Fatalf("ticks = %d, want 2", count)
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTicker(&e, 0, func(float64) {})
}

// Property: firing order is always by non-decreasing time regardless of
// insertion order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []float64) bool {
		var e Engine
		valid := 0
		var fired []float64
		for _, d := range delays {
			if d < 0 || d != d || d > 1e12 {
				continue
			}
			valid++
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
		}
		for e.Step() {
		}
		if len(fired) != valid {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestManyEventsStress(t *testing.T) {
	var e Engine
	const n = 50000
	count := 0
	for i := 0; i < n; i++ {
		e.Schedule(float64((i*7919)%1000), func() { count++ })
	}
	for e.Step() {
	}
	if count != n {
		t.Fatalf("fired %d of %d", count, n)
	}
}

func TestAtPastPanics(t *testing.T) {
	var e Engine
	e.Schedule(5, func() {})
	for e.Step() {
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for At in the past")
		}
	}()
	e.At(1, func() {})
}
