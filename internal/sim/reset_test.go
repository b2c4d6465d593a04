package sim

import "testing"

// Regression tests for generation-counted handles held across Reset:
// the engine pool (internal/bench) reuses one engine across thousands
// of experiment runs, so a handle leaked from run N must be inert in
// run N+1 even when its slot has been recycled by a new event.

// TestResetInvalidatesStaleHandles pins that a pre-Reset handle can
// neither cancel nor observe the slot's post-Reset occupant.
func TestResetInvalidatesStaleHandles(t *testing.T) {
	var eng Engine
	stale := make([]Event, 0, 8)
	for i := 0; i < 8; i++ {
		stale = append(stale, eng.Schedule(float64(i), func() {}))
	}
	eng.Reset()

	// Refill every recycled slot with a new event.
	fired := 0
	for i := 0; i < 8; i++ {
		eng.Schedule(float64(i), func() { fired++ })
	}
	// Stale handles must read as dead and their Cancel must be a no-op
	// on the slots' new occupants.
	for i, h := range stale {
		if h.Pending() {
			t.Fatalf("stale handle %d reads Pending after Reset", i)
		}
		if h.Cancelled() {
			t.Fatalf("stale handle %d reads Cancelled after Reset", i)
		}
		h.Cancel()
	}
	for eng.Step() {
	}
	if fired != 8 {
		t.Fatalf("stale Cancel suppressed new events: fired %d of 8", fired)
	}
}

// TestCancelAfterResetDoesNotFireOldEvent pins the other direction: an
// event scheduled before Reset must never fire after it, no matter how
// the recycled slots are exercised — including cancelling the stale
// handle mid-run, after its slot already hosts a live event.
func TestCancelAfterResetDoesNotFireOldEvent(t *testing.T) {
	var eng Engine
	oldFired := false
	h := eng.Schedule(1.0, func() { oldFired = true })
	eng.Reset()

	newFired := 0
	eng.Schedule(0.5, func() {
		// Mid-run cancel of the stale handle: its slot is now occupied
		// by one of the new events.
		h.Cancel()
	})
	eng.Schedule(1.0, func() { newFired++ })
	eng.Schedule(2.0, func() { newFired++ })
	for eng.Step() {
	}
	if oldFired {
		t.Fatal("pre-Reset event fired after Reset")
	}
	if newFired != 2 {
		t.Fatalf("stale mid-run Cancel killed a live event: fired %d of 2", newFired)
	}
}

// TestResetHandleReuseAcrossManyResets drives the generation counters
// through repeated Reset/refill cycles — the engine-pool lifecycle —
// and checks a handle from each generation stays dead in all later
// ones.
func TestResetHandleReuseAcrossManyResets(t *testing.T) {
	var eng Engine
	var graveyard []Event
	for cycle := 0; cycle < 50; cycle++ {
		fired := 0
		want := 4
		hs := make([]Event, 0, want)
		for i := 0; i < want; i++ {
			hs = append(hs, eng.Schedule(float64(i)*0.25, func() { fired++ }))
		}
		// Every handle from every earlier cycle must be inert.
		for _, g := range graveyard {
			if g.Pending() || g.Cancelled() {
				t.Fatalf("cycle %d: graveyard handle alive", cycle)
			}
			g.Cancel()
		}
		for eng.Step() {
		}
		if fired != want {
			t.Fatalf("cycle %d: fired %d of %d", cycle, fired, want)
		}
		graveyard = append(graveyard, hs...)
		eng.Reset()
	}
}
