package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestGoldenFiringOrder pins the exact firing order of a deterministic
// but adversarial schedule: duplicate times (tie-break by sequence),
// nested scheduling from inside callbacks, and interleaved cancels.
// The digest was recorded against the seed container/heap engine; any
// calendar rewrite must reproduce it bit-for-bit.
func TestGoldenFiringOrder(t *testing.T) {
	const goldenFiringDigest = "8ba254a8c9921b45"

	var e Engine
	h := fnv.New64a()
	record := func(id int) {
		fmt.Fprintf(h, "%d@%.12g;", id, e.Now())
	}

	// A deterministic LCG so the schedule is reproducible without any
	// dependency on the engine under test.
	state := uint64(12345)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}

	var cancels []func()
	for i := 0; i < 200; i++ {
		id := i
		// Coarse times force many ties; tie-break order must hold.
		delay := float64(next() % 16)
		ev := e.Schedule(delay, func() {
			record(id)
			if id%5 == 0 {
				nid := 1000 + id
				e.Schedule(float64(next()%4), func() { record(nid) })
			}
		})
		if i%7 == 0 {
			cancels = append(cancels, ev.Cancel)
		}
	}
	// Cancel a deterministic subset before running.
	for i, cancel := range cancels {
		if i%2 == 0 {
			cancel()
		}
	}
	for e.Step() {
	}
	if got := fmt.Sprintf("%016x", h.Sum64()); got != goldenFiringDigest {
		t.Fatalf("firing-order digest = %s, want %s", got, goldenFiringDigest)
	}
}
