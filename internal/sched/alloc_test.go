package sched

import (
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
)

// raceEnabled is set by race_test.go under the race build tag.
var raceEnabled bool

// A branch-and-bound exhaustive search through a persistent Scratch —
// the T4 shape, 8 stages on 4 heterogeneous nodes — allocates nothing
// once the first search has grown the scratch buffers.
func TestExhaustiveSearchZeroAlloc(t *testing.T) {
	g, spec, _, _, err := buildEquiv(rng.New(42), equivCase{name: "chain-8x4", ns: 8, np: 4})
	if err != nil {
		t.Fatal(err)
	}
	var s Searcher = Exhaustive{}
	sc := NewScratch()
	search := func() {
		if _, _, err := SearchWith(sc, s, g, spec, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if a := testing.AllocsPerRun(20, search); a != 0 {
		t.Fatalf("exhaustive search through a warm scratch allocates %v per search, want 0", a)
	}
}

// A LocalSearch through a persistent Scratch — the cluster divider's
// call, three stages inside a lease of a 16-node grid — allocates
// nothing once the first search has grown the scratch buffers, the
// table of rated assignments included.
func TestLocalSearchZeroAlloc(t *testing.T) {
	g, spec, loads, avail := improveCase(t)
	var s Searcher = LocalSearch{Seed: 7}
	sc := NewScratch()
	search := func() {
		if _, _, err := SearchWith(sc, s, g, spec, loads, avail); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if a := testing.AllocsPerRun(20, search); a != 0 {
		t.Fatalf("local search through a warm scratch allocates %v per search, want 0", a)
	}
}

// The improvement pass allocates for what it returns and for the steps
// it accepts, not for the candidates it tries: its working copy of the
// mapping, the detached prediction, the two keep buffers and the one
// trial row are a fixed cost, and each accepted replica clones the
// mapping once. Trying a node — there are a dozen per step here — is
// free (it was a Mapping.Clone each).
func TestImproveReplicationAllocsBoundedBySteps(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops a quarter of what is Put, so pooled scratch is re-allocated")
	}
	g, spec, loads, avail := improveCase(t)
	start, _, err := LocalSearch{Seed: 7}.SearchAvail(g, spec, loads, avail)
	if err != nil {
		t.Fatal(err)
	}
	var out model.Mapping
	improve := func() {
		if out, _, err = ImproveWithReplicationAvail(g, spec, start, loads, 0, avail); err != nil {
			t.Fatal(err)
		}
	}
	improve()
	steps := 0
	for i, row := range out.Assign {
		steps += len(row) - len(start.Assign[i])
	}
	if steps < 3 {
		t.Fatalf("the pass accepted %d replicas; the case needs several steps to bound", steps)
	}
	ns := spec.NumStages()
	fixed := (ns + 1) + 1 + 2 + 8 // working clone, detached busy vector, keep buffers, the trial rows as they grow
	perStep := (ns + 1) + 1       // Mapping.Clone plus the widened row
	if a := testing.AllocsPerRun(20, improve); a > float64(fixed+perStep*steps) {
		t.Fatalf("improvement pass allocates %v for %d accepted steps, want <= %d + %d per step", a, steps, fixed, perStep)
	}
}

// improveCase is the cluster rung's search: a three-stage replicable
// pipeline with one heavy stage (the genome job's shape) inside a
// 12-node lease of a 16-node grid, under load.
func improveCase(t *testing.T) (*grid.Grid, model.PipelineSpec, []float64, []bool) {
	t.Helper()
	g, err := grid.Homogeneous(16, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	loads, avail := make([]float64, 16), make([]bool, 16)
	for n := range avail {
		avail[n] = n < 12
		loads[n] = 0.05 * float64(n%4)
	}
	spec := model.Balanced(3, 0.05, 1e4)
	spec.Stages[1].Work = 0.4
	return g, spec, loads, avail
}
