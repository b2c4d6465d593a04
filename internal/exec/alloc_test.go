package exec

import (
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sim"
)

// A simulated item crossing the 4-stage one-to-one mapped pipeline
// allocates nothing of its own: items, tasks and transfers are pooled
// and every event is a bound trampoline. What a run does allocate is
// set-up (the executor, the pools' first fill) and the growth of its
// per-item result slices, so the whole count over the items must stay
// under 0.01.
func TestRunItemsAllocsPerItem(t *testing.T) {
	const items = 50_000
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(4, 0.1, 1e5)
	allocs := testing.AllocsPerRun(1, func() {
		e, err := New(&sim.Engine{}, g, spec, model.OneToOne(4), Options{MaxInFlight: 16})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunItems(items); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / items; per >= 0.01 {
		t.Fatalf("%v allocations over %d items = %.4f per item, want < 0.01", allocs, items, per)
	}
}
