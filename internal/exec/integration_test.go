package exec

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/sim"
	"gridpipe/internal/trace"
)

// TestReplayedTraceDrivesExecution closes the loop of the
// measure-offline/replay-online workflow: the samples of a stochastic
// load trace, recorded at its own step and replayed as a fresh
// Sampled trace on a grid node, must slow the pipeline exactly as the
// original trace does.
func TestReplayedTraceDrivesExecution(t *testing.T) {
	orig := trace.NewRandomWalk(rng.New(5), 200, 1, 0.5, 0.1, 0.2)
	replayed := &trace.Sampled{Dt: orig.Dt, Vals: trace.Sample(orig, 0, 200, 200)}

	runWith := func(tr trace.Trace) float64 {
		g, err := grid.NewGrid(grid.LANLink,
			&grid.Node{Name: "a", Speed: 1, Cores: 1, Load: tr},
			&grid.Node{Name: "b", Speed: 1, Cores: 1},
		)
		if err != nil {
			t.Fatal(err)
		}
		eng := &sim.Engine{}
		e, err := New(eng, g, model.Balanced(2, 0.1, 100), model.OneToOne(2), Options{MaxInFlight: 8})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := e.RunItems(400)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}

	msOrig := runWith(orig)
	msReplay := runWith(replayed)
	if rel := math.Abs(msOrig-msReplay) / msOrig; rel > 0.01 {
		t.Fatalf("replayed trace diverges: %v vs %v (rel %v)", msOrig, msReplay, rel)
	}

	// And the load must actually have slowed things relative to idle.
	msIdle := runWith(trace.Constant(0))
	if msOrig < msIdle*1.3 {
		t.Fatalf("walk load (mean 0.5) barely slowed the run: %v vs idle %v", msOrig, msIdle)
	}
}

// TestDegradingLinkSlowsTransfers exercises the link Quality trace end
// to end: a link whose effective bandwidth halves mid-run stretches the
// makespan of a transfer-bound pipeline.
func TestDegradingLinkSlowsTransfers(t *testing.T) {
	mk := func(q trace.Trace) float64 {
		g, err := grid.Heterogeneous([]float64{1, 1}, grid.LANLink)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.SetLink(0, 1, grid.Link{Latency: 1e-3, Bandwidth: 1e6, Quality: q}); err != nil {
			t.Fatal(err)
		}
		spec := model.PipelineSpec{Stages: []model.StageSpec{
			{Name: "a", Work: 0.001, OutBytes: 0.5e6},
			{Name: "b", Work: 0.001},
		}}
		eng := &sim.Engine{}
		e, err := New(eng, g, spec, model.OneToOne(2), Options{MaxInFlight: 4})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := e.RunItems(100)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	stable := mk(nil)
	degraded := mk(trace.Constant(0.5))
	ratio := degraded / stable
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("50%% link degradation should ~double a transfer-bound run: ratio %v", ratio)
	}
}

// TestSaturatedVsOracleMakespanOrdering: for any deterministic
// instance, the mapping chosen by exhaustive search must yield a
// makespan no worse (beyond transient noise) than an arbitrary
// alternative — the executor must respect the model's ordering on
// clearly separated mappings.
func TestModelOrderingRespectedBySimulator(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 4}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	spec := model.Balanced(2, 0.1, 0)
	good := model.FromNodes(1, 1) // 4x node: 20/s
	bad := model.FromNodes(0, 0)  // 1x node: 5/s
	run := func(m model.Mapping) float64 {
		eng := &sim.Engine{}
		e, err := New(eng, g, spec, m, Options{MaxInFlight: 8})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := e.RunItems(400)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if gm, bm := run(good), run(bad); gm >= bm {
		t.Fatalf("simulator contradicts model ordering: good=%v bad=%v", gm, bm)
	}
}
