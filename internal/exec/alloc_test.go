package exec

import (
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sim"
)

// raceEnabled is set by race_test.go under the race build tag.
var raceEnabled bool

// A simulated item crossing the 4-stage one-to-one mapped pipeline
// allocates nothing of its own: items, tasks and transfers are pooled
// and every event is a bound trampoline. What a run does allocate is
// set-up (the executor, the pools' first fill) and the growth of its
// per-item result slices, so the whole count over the items must stay
// under 0.01. With a sampler, demand rows are drawn a block at a time,
// by a helper goroutine started per block into one of two reused block
// buffers. One allocation per block would read only 1/256 per item, so
// the sampler's row must also stay within a quarter of an allocation
// per block of the spec-work row. Under -race that bound is not
// checked: there the helpers' spawns allocate (53 over 195 blocks in
// one run of the whole suite); the per-item bound still is.
func TestRunItemsAllocsPerItem(t *testing.T) {
	const items = 50_000
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(4, 0.1, 1e5)
	run := func(sampler func(stage, seq int) float64) float64 {
		return testing.AllocsPerRun(1, func() {
			e, err := New(&sim.Engine{}, g, spec, model.OneToOne(4), Options{MaxInFlight: 16, WorkSampler: sampler})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.RunItems(items); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, sampled := run(nil), run(lognormalSampler(spec, 1))
	for _, row := range []struct {
		name   string
		allocs float64
	}{{"spec work", base}, {"lognormal sampler", sampled}} {
		if per := row.allocs / items; per >= 0.01 {
			t.Fatalf("%s: %v allocations over %d items = %.4f per item, want < 0.01", row.name, row.allocs, items, per)
		}
	}
	if blocks := float64(items / demandBlock); !raceEnabled && sampled-base >= blocks/4 {
		t.Fatalf("the sampler adds %v allocations over %v demand blocks, want under %v", sampled-base, blocks, blocks/4)
	}
}
