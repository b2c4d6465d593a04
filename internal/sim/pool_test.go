package sim

import "testing"

// The pool tests are white-box: they pin slot indexes to prove handles
// and slots really are recycled, not merely that behaviour looks right
// from outside.

func TestFiredSlotRecycledAndStaleHandleInert(t *testing.T) {
	var e Engine
	fired := map[string]bool{}
	h1 := e.Schedule(1, func() { fired["first"] = true })
	if !h1.Pending() {
		t.Fatal("h1 should be pending")
	}
	if !e.Step() {
		t.Fatal("Step should fire")
	}
	if !fired["first"] || h1.Pending() {
		t.Fatalf("first event: fired=%v pending=%v", fired["first"], h1.Pending())
	}

	h2 := e.Schedule(1, func() { fired["second"] = true })
	if h2.idx != h1.idx {
		t.Fatalf("slot not recycled: h1.idx=%d h2.idx=%d", h1.idx, h2.idx)
	}
	if h2.gen == h1.gen {
		t.Fatal("generation must advance on recycle")
	}
	// The stale handle must not be able to touch the slot's new tenant.
	h1.Cancel()
	if h1.Cancelled() {
		t.Fatal("stale handle reports Cancelled")
	}
	if !h2.Pending() {
		t.Fatal("successor event was cancelled through a stale handle")
	}
	for e.Step() {
	}
	if !fired["second"] {
		t.Fatal("successor event did not fire")
	}
}

func TestCancelledSlotCollectedOnSurface(t *testing.T) {
	var e Engine
	h := e.Schedule(1, func() { t.Fatal("cancelled event fired") })
	h.Cancel()
	if !h.Cancelled() {
		t.Fatal("Cancelled() should be true while the slot is still queued")
	}
	if got := len(e.free); got != 0 {
		t.Fatalf("slot freed before surfacing: free=%d", got)
	}
	if e.Step() {
		t.Fatal("Step fired something on an all-cancelled calendar")
	}
	// Surfacing truly removed the event: slot back on the free list,
	// heap empty, generation bumped so the old handle is inert.
	if len(e.free) != 1 || len(e.heap) != 0 {
		t.Fatalf("cancelled slot not collected: free=%d heap=%d", len(e.free), len(e.heap))
	}
	if h.Cancelled() || h.Pending() {
		t.Fatal("handle should be inert after collection")
	}

	fired := false
	h2 := e.Schedule(1, func() { fired = true })
	if h2.idx != h.idx {
		t.Fatalf("slot not reused: %d vs %d", h2.idx, h.idx)
	}
	h.Cancel() // stale: must not cancel its successor
	for e.Step() {
	}
	if !fired {
		t.Fatal("recycled handle cancelled its successor")
	}
}

func TestSteadyStateReusesSlab(t *testing.T) {
	var e Engine
	var churn func()
	n := 0
	churn = func() {
		n++
		if n < 10000 {
			e.Schedule(1, churn)
		}
	}
	e.Schedule(1, churn)
	for e.Step() {
	}
	if n != 10000 {
		t.Fatalf("fired %d", n)
	}
	// One event in flight at a time: the slab must not have grown past
	// a handful of slots.
	if len(e.slab) > 4 {
		t.Fatalf("slab grew to %d slots for a 1-deep calendar", len(e.slab))
	}
}

func TestResetMidRun(t *testing.T) {
	var e Engine
	var got []float64
	e.Schedule(1, func() { got = append(got, e.Now()) })
	h := e.Schedule(2, func() { got = append(got, e.Now()) })
	e.Schedule(3, func() { t.Error("event survived Reset") })
	e.Step() // fire the t=1 event only
	e.Reset()

	if e.Now() != 0 || len(e.heap) != 0 {
		t.Fatalf("after Reset: now=%v queued=%d", e.Now(), len(e.heap))
	}
	if h.Pending() || h.Cancelled() {
		t.Fatal("pre-Reset handle still live")
	}
	h.Cancel() // must not touch anything scheduled after Reset

	// The engine is fully reusable: same schedule, same trace, and the
	// slab capacity is retained rather than re-grown.
	slots := len(e.slab)
	e.Schedule(1, func() { got = append(got, 100+e.Now()) })
	e.Schedule(2, func() { got = append(got, 100+e.Now()) })
	for e.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 101 || got[2] != 102 {
		t.Fatalf("trace after Reset = %v", got)
	}
	if len(e.slab) != slots {
		t.Fatalf("slab re-grew across Reset: %d -> %d", slots, len(e.slab))
	}
}

func TestResetDeterministicReplay(t *testing.T) {
	run := func(e *Engine) []float64 {
		var trace []float64
		for i := 0; i < 50; i++ {
			d := float64((i * 13) % 7)
			e.Schedule(d, func() { trace = append(trace, e.Now()) })
		}
		for e.Step() {
		}
		return trace
	}
	var e Engine
	first := run(&e)
	e.Reset()
	second := run(&e)
	if len(first) != len(second) {
		t.Fatalf("replay length: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, first[i], second[i])
		}
	}
}

func TestScheduleArg(t *testing.T) {
	var e Engine
	type payload struct{ hits int }
	p := &payload{}
	bump := func(arg any) { arg.(*payload).hits++ }
	e.ScheduleArg(1, bump, p)
	e.ScheduleArg(2, bump, p)
	h := e.ScheduleArg(3, bump, p)
	h.Cancel()
	for e.Step() {
	}
	if p.hits != 2 {
		t.Fatalf("hits = %d, want 2", p.hits)
	}
	if e.Now() != 2 {
		t.Fatalf("cancelled ScheduleArg event advanced the clock: now=%v", e.Now())
	}
}

func TestScheduleArgPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil fn")
		}
	}()
	e.ScheduleArg(1, nil, 7)
}
