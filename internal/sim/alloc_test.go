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

// Four partitions, one cross-partition Send each and the rest local,
// windows run inline (workers=1) so the measurement is the protocol —
// outbox staging, window-edge exchange, calendar merge — and not a
// goroutine hand-off.
func TestPartitionWindowZeroAlloc(t *testing.T) {
	const parts = 4
	pe := NewParallel(parts, 1.0)
	pe.SetWorkers(1)
	noop := func(any) {}
	wantZeroAlloc(t, func() {
		for p := 0; p < parts; p++ {
			sh := pe.Part(p)
			for j := 0; j < allocBatch/parts-1; j++ {
				sh.ScheduleArg(0.1*float64(j&7), noop, nil)
			}
			sh.Send((p+1)%parts, 1.0, noop, nil)
		}
		pe.Run()
	})
}
