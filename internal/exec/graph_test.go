package exec

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sim"
	"gridpipe/internal/topo"
)

func diamondSpec(t *testing.T) model.PipelineSpec {
	t.Helper()
	g, err := topo.Diamond(
		topo.Stage{Name: "head", Work: 0.1, OutBytes: 1e5, Replicable: true},
		[]topo.Stage{
			{Name: "left", Work: 0.3, OutBytes: 1e5, Replicable: true},
			{Name: "right", Work: 0.3, OutBytes: 1e5, Replicable: true},
		},
		topo.Stage{Name: "tail", Work: 0.1, OutBytes: 1e4, Replicable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := model.FromGraph(g, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// A diamond run is conservative: every admitted item is serviced once
// by every stage (both branches) and completes exactly once.
func TestDiamondConservation(t *testing.T) {
	spec := diamondSpec(t)
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, model.OneToOne(4), Options{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	visits := countServices(e)
	const items = 200
	if _, err := e.RunItems(items); err != nil {
		t.Fatal(err)
	}
	if e.Done() != items || e.InFlight() != 0 {
		t.Fatalf("done=%d inflight=%d", e.Done(), e.InFlight())
	}
	for s, c := range visits {
		if c != items {
			t.Fatalf("stage %d serviced %d items, want %d", s, c, items)
		}
	}
}

// The two branches overlap: a lone item's traversal time must be well
// below the summed stage works, and a saturated diamond must sustain
// the branch-bound throughput.
func TestDiamondBranchesOverlap(t *testing.T) {
	spec := diamondSpec(t)
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}

	eng := &sim.Engine{}
	e, err := New(eng, g, spec, model.OneToOne(4), Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunItems(1); err != nil {
		t.Fatal(err)
	}
	lat := e.Latencies()[0]
	// Serial work is 0.8; the overlapped critical path is 0.5 plus
	// small transfers.
	if lat > 0.6 {
		t.Fatalf("single-item latency %v suggests branches ran serially", lat)
	}

	eng2 := &sim.Engine{}
	e2, err := New(eng2, g, spec, model.OneToOne(4), Options{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	const items = 400
	ms, err := e2.RunItems(items)
	if err != nil {
		t.Fatal(err)
	}
	thr := float64(items) / ms
	want := 1 / 0.3 // each branch stage bounds the rate
	if math.Abs(thr-want)/want > 0.1 {
		t.Fatalf("diamond throughput %v, want ≈ %v", thr, want)
	}
}

// Fan-in replica choice is sticky: with the merge stage replicated,
// both parts of each item must land on one replica and the join never
// deadlocks.
func TestDiamondReplicatedMergeJoins(t *testing.T) {
	spec := diamondSpec(t)
	g, err := grid.Homogeneous(6, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	m := model.Mapping{Assign: [][]grid.NodeID{{0}, {1}, {2}, {3, 4, 5}}}
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, m, Options{MaxInFlight: 12})
	if err != nil {
		t.Fatal(err)
	}
	visits := countServices(e)
	const items = 300
	if _, err := e.RunItems(items); err != nil {
		t.Fatal(err)
	}
	if c := visits[3]; c != items {
		t.Fatalf("merge stage serviced %d, want %d", c, items)
	}
}

// A mid-run remap of a diamond (both protocols) neither loses nor
// duplicates items, including parts split across branches at the
// moment of the switch.
func TestDiamondRemapSafe(t *testing.T) {
	for _, proto := range []RemapProtocol{DrainSafe, KillRestart} {
		spec := diamondSpec(t)
		g, err := grid.Homogeneous(5, 1, grid.LANLink)
		if err != nil {
			t.Fatal(err)
		}
		eng := &sim.Engine{}
		e, err := New(eng, g, spec, model.OneToOne(4), Options{MaxInFlight: 10})
		if err != nil {
			t.Fatal(err)
		}
		nm := model.Mapping{Assign: [][]grid.NodeID{{4}, {2, 3}, {0}, {1}}}
		eng.Schedule(3, func() {
			if _, err := e.Remap(nm, proto); err != nil {
				t.Errorf("%v: remap: %v", proto, err)
			}
		})
		const items = 150
		if _, err := e.RunItems(items); err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if e.Done() != items {
			t.Fatalf("%v: done=%d", proto, e.Done())
		}
	}
}

// A remap that lands between a fan-in's part arrivals must pay to
// relocate the parts already joined at the stale replica: the item
// still completes exactly once and the move is counted as a migration
// (it is not teleported for free).
func TestDiamondMidJoinRemapPaysRelocation(t *testing.T) {
	g, err := topo.Diamond(
		topo.Stage{Name: "head", Work: 0.01, OutBytes: 1e5, Replicable: true},
		[]topo.Stage{
			{Name: "fast", Work: 0.01, OutBytes: 1e5, Replicable: true},
			{Name: "slow", Work: 1.0, OutBytes: 1e5, Replicable: true},
		},
		topo.Stage{Name: "merge", Work: 0.01, OutBytes: 1e4, Replicable: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := model.FromGraph(g, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := grid.Homogeneous(5, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	eng := &sim.Engine{}
	e, err := New(eng, gr, spec, model.OneToOne(4), Options{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	// At t=0.5 the fast part has joined at node 3 while the slow part
	// is still in service; move the merge stage to node 4.
	var rst RemapStats
	eng.Schedule(0.5, func() {
		nm := model.Mapping{Assign: [][]grid.NodeID{{0}, {1}, {2}, {4}}}
		var err error
		rst, err = e.Remap(nm, DrainSafe)
		if err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	if _, err := e.RunItems(1); err != nil {
		t.Fatal(err)
	}
	if e.Done() != 1 {
		t.Fatalf("done = %d", e.Done())
	}
	if e.Migrations() < 1 {
		t.Fatal("mid-join relocation was not counted as a migration")
	}
	if !rst.Changed {
		t.Fatal("remap reported unchanged")
	}
}

// The explicit chain topology reproduces the implicit linear executor
// exactly: same latency trace, same makespan.
func TestChainTopoMatchesLinearExecutor(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 2, 1.5}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	run := func(spec model.PipelineSpec) []float64 {
		eng := &sim.Engine{}
		e, err := New(eng, g, spec, model.FromNodes(0, 1, 2), Options{MaxInFlight: 6})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunItems(80); err != nil {
			t.Fatal(err)
		}
		return append([]float64(nil), e.Latencies()...)
	}
	linear := model.Balanced(3, 0.2, 1e5)
	withTopo := linear
	withTopo.Topo = linear.Graph()
	a, b := run(linear), run(withTopo)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency[%d]: linear %v vs chain-topo %v", i, a[i], b[i])
		}
	}
}
