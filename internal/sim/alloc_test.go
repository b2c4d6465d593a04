package sim

import "testing"

// The calendar's steady state allocates nothing: slots come from the
// pooled slab, the index heap is reused, handles are values.

const allocBatch = 64 // events per measured cycle; keeps the heap realistic

// wantZeroAlloc runs cycle once to grow the buffers, then measures it.
func wantZeroAlloc(t *testing.T, cycle func()) {
	t.Helper()
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("%v allocations per %d events, want 0", a, allocBatch)
	}
}

func TestScheduleStepZeroAlloc(t *testing.T) {
	var eng Engine
	fn := func() {}
	wantZeroAlloc(t, func() {
		for j := 0; j < allocBatch; j++ {
			eng.Schedule(float64(j&7), fn)
		}
		for eng.Step() {
		}
	})
}

func TestScheduleCancelZeroAlloc(t *testing.T) {
	var eng Engine
	fn := func() {}
	var handles [allocBatch]Event
	wantZeroAlloc(t, func() {
		for j := range handles {
			handles[j] = eng.Schedule(float64(j&7), fn)
		}
		for j := 0; j < allocBatch; j += 2 {
			handles[j].Cancel()
		}
		for eng.Step() {
		}
	})
}
