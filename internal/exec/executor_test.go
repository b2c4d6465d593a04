package exec

import (
	"math"
	"sync/atomic"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sim"
	"gridpipe/internal/trace"
)

func het(t *testing.T, speeds ...float64) *grid.Grid {
	t.Helper()
	g, err := grid.Heterogeneous(speeds, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// onService wraps every node server's completion callback, the one
// that records a service in the executor's per-stage monitor, so that f
// sees each completed service's task before the executor recycles it.
// Call it before the run starts.
func onService(e *Executor, f func(t *task)) {
	for _, ns := range e.nodes {
		finish := ns.finishFn
		ns.finishFn = func(arg any) {
			f(arg.(*task))
			finish(arg)
		}
	}
}

// countServices counts, per stage, the services that completed.
func countServices(e *Executor) []int {
	served := make([]int, e.spec.NumStages())
	onService(e, func(t *task) { served[t.stage]++ })
	return served
}

func newExec(t *testing.T, g *grid.Grid, spec model.PipelineSpec, m model.Mapping, opts Options) (*sim.Engine, *Executor) {
	t.Helper()
	eng := &sim.Engine{}
	e, err := New(eng, g, spec, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, e
}

func TestRunItemsCompletesAll(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.Balanced(3, 0.1, 1000)
	_, e := newExec(t, g, spec, model.OneToOne(3), Options{})
	makespan, err := e.RunItems(50)
	if err != nil {
		t.Fatal(err)
	}
	if e.Done() != 50 || e.InFlight() != 0 {
		t.Fatalf("done=%d inflight=%d", e.Done(), e.InFlight())
	}
	if makespan <= 0 {
		t.Fatalf("makespan = %v", makespan)
	}
	if len(e.Latencies()) != 50 {
		t.Fatalf("latencies = %d", len(e.Latencies()))
	}
}

func TestThroughputMatchesAnalyticBalanced(t *testing.T) {
	g := het(t, 1, 1, 1, 1)
	spec := model.Balanced(4, 0.1, 0)
	m := model.OneToOne(4)
	pred, err := model.Predict(g, spec, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, e := newExec(t, g, spec, m, Options{MaxInFlight: 16})
	const n = 2000
	makespan, err := e.RunItems(n)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(n) / makespan
	if rel := math.Abs(measured-pred.Throughput) / pred.Throughput; rel > 0.05 {
		t.Fatalf("measured %v vs predicted %v (rel err %v)", measured, pred.Throughput, rel)
	}
}

func TestThroughputBoundedByBottleneck(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "fast", Work: 0.01},
		{Name: "slow", Work: 0.2},
	}}
	_, e := newExec(t, g, spec, model.OneToOne(2), Options{MaxInFlight: 8})
	const n = 500
	makespan, err := e.RunItems(n)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(n) / makespan
	if measured > 5.01 {
		t.Fatalf("throughput %v exceeds bottleneck bound 5", measured)
	}
	if measured < 4.5 {
		t.Fatalf("throughput %v far below bottleneck bound 5", measured)
	}
}

func TestColocationMatchesAnalytic(t *testing.T) {
	g := het(t, 1, 2)
	spec := model.Balanced(3, 0.1, 0)
	m := model.FromNodes(0, 1, 1)
	pred, _ := model.Predict(g, spec, m, nil)
	_, e := newExec(t, g, spec, m, Options{MaxInFlight: 12})
	const n = 1500
	makespan, err := e.RunItems(n)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(n) / makespan
	if rel := math.Abs(measured-pred.Throughput) / pred.Throughput; rel > 0.06 {
		t.Fatalf("measured %v vs predicted %v", measured, pred.Throughput)
	}
}

func TestLoadedNodeSlowsPipeline(t *testing.T) {
	gIdle := het(t, 1, 1)
	spec := model.Balanced(2, 0.1, 0)
	_, eIdle := newExec(t, gIdle, spec, model.OneToOne(2), Options{})
	msIdle, err := eIdle.RunItems(300)
	if err != nil {
		t.Fatal(err)
	}

	gLoaded, err := grid.NewGrid(grid.LANLink,
		&grid.Node{Name: "a", Speed: 1, Cores: 1, Load: trace.Constant(0.5)},
		&grid.Node{Name: "b", Speed: 1, Cores: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, eLoaded := newExec(t, gLoaded, spec, model.OneToOne(2), Options{})
	msLoaded, err := eLoaded.RunItems(300)
	if err != nil {
		t.Fatal(err)
	}
	ratio := msLoaded / msIdle
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("50%% load should ~double makespan, ratio = %v", ratio)
	}
}

func TestReplicatedStageScales(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "light", Work: 0.02},
		{Name: "heavy", Work: 0.2, Replicable: true},
	}}
	plain := model.FromNodes(0, 1)
	_, e1 := newExec(t, g, spec, plain, Options{MaxInFlight: 12})
	ms1, err := e1.RunItems(600)
	if err != nil {
		t.Fatal(err)
	}
	repl := plain.WithReplicas(1, 1, 2)
	_, e2 := newExec(t, g, spec, repl, Options{MaxInFlight: 12})
	ms2, err := e2.RunItems(600)
	if err != nil {
		t.Fatal(err)
	}
	speedup := ms1 / ms2
	if speedup < 1.7 {
		t.Fatalf("2-way replication speedup = %v, want ~2", speedup)
	}
}

func TestSlowLinkBoundsThroughput(t *testing.T) {
	g := het(t, 1, 1)
	if err := g.SetLink(0, 1, grid.Link{Latency: 0.001, Bandwidth: 1e6}); err != nil {
		t.Fatal(err)
	}
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.01, OutBytes: 0.5e6},
		{Name: "b", Work: 0.01},
	}}
	pred, _ := model.Predict(g, spec, model.OneToOne(2), nil)
	_, e := newExec(t, g, spec, model.OneToOne(2), Options{MaxInFlight: 8})
	const n = 200
	makespan, err := e.RunItems(n)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(n) / makespan
	if rel := math.Abs(measured-pred.Throughput) / pred.Throughput; rel > 0.1 {
		t.Fatalf("link-bound: measured %v vs predicted %v", measured, pred.Throughput)
	}
}

func TestMonitorSeesServiceTimes(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.Balanced(2, 0.25, 0)
	_, e := newExec(t, g, spec, model.OneToOne(2), Options{})
	if _, err := e.RunItems(100); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ms := e.Monitor().Stage(i).MeanService()
		if math.Abs(ms-0.25) > 0.01 {
			t.Fatalf("stage %d mean service = %v, want 0.25", i, ms)
		}
	}
	if got := len(e.Monitor().Completions()); got != 100 {
		t.Fatalf("monitor completions = %d", got)
	}
}

// The sampler's demand is the one served, and each (stage, seq) below
// TotalItems is drawn exactly once — by the event loop or by a helper,
// hence the atomic counts — and no seq at or past it is drawn at all.
// The run spans three blocks, so helpers draw some of them.
func TestWorkSamplerUsedAndCached(t *testing.T) {
	g := het(t, 1, 1)
	spec := model.Balanced(2, 0.1, 0)
	const items = 600
	var calls [2][items]atomic.Int32
	var beyond atomic.Int32
	_, e := newExec(t, g, spec, model.OneToOne(2), Options{
		WorkSampler: func(stage, seq int) float64 {
			if seq >= items {
				beyond.Add(1)
			} else {
				calls[stage][seq].Add(1)
			}
			return 0.05
		},
	})
	makespan, err := e.RunItems(items)
	if err != nil {
		t.Fatal(err)
	}
	for stage := range calls {
		for seq := range calls[stage] {
			if n := calls[stage][seq].Load(); n != 1 {
				t.Fatalf("sampler called %d times for (stage %d, seq %d), want 1", n, stage, seq)
			}
		}
	}
	if n := beyond.Load(); n != 0 {
		t.Fatalf("sampler called %d times for seqs at or past TotalItems %d", n, items)
	}
	if math.Abs(makespan-(items+1)*0.05) > 0.1 {
		t.Fatalf("makespan = %v, want ~%v", makespan, (items+1)*0.05)
	}
}

func TestPoissonArrivalsLowUtilisation(t *testing.T) {
	g := het(t, 1)
	spec := model.Balanced(1, 0.1, 0)
	// λ=2 items/s against capacity 10/s: latency should be close to
	// service time, completions ≈ λ·T.
	_, e := newExec(t, g, spec, model.FromNodes(0), Options{
		ArrivalRate: 2, Seed: 1,
	})
	done := e.RunUntil(200)
	if done < 300 || done > 500 {
		t.Fatalf("done = %d, want ~400", done)
	}
	lat := e.Latencies()
	mean := 0.0
	for _, l := range lat {
		mean += l
	}
	mean /= float64(len(lat))
	// M/D/1 at ρ=0.2: W = s(1 + ρ/(2(1-ρ))) = 0.1·1.125 = 0.1125.
	if mean < 0.1 || mean > 0.2 {
		t.Fatalf("mean latency = %v, want ~0.11", mean)
	}
}

func TestRunUntilSaturated(t *testing.T) {
	g := het(t, 1)
	spec := model.Balanced(1, 0.1, 0)
	_, e := newExec(t, g, spec, model.FromNodes(0), Options{})
	done := e.RunUntil(100)
	if done < 950 || done > 1001 {
		t.Fatalf("done = %d, want ~1000", done)
	}
}

func TestRunItemsErrors(t *testing.T) {
	g := het(t, 1)
	spec := model.Balanced(1, 0.1, 0)
	_, e := newExec(t, g, spec, model.FromNodes(0), Options{})
	if _, err := e.RunItems(0); err == nil {
		t.Fatal("RunItems(0) accepted")
	}
}

func TestNewValidates(t *testing.T) {
	g := het(t, 1)
	eng := &sim.Engine{}
	if _, err := New(eng, g, model.PipelineSpec{}, model.Mapping{}, Options{}); err == nil {
		t.Fatal("empty spec accepted")
	}
	spec := model.Balanced(2, 0.1, 0)
	if _, err := New(eng, g, spec, model.FromNodes(0, 5), Options{}); err == nil {
		t.Fatal("invalid mapping accepted")
	}
}

func TestOrderingStatsSane(t *testing.T) {
	// Latency of every item must be at least the total service demand.
	g := het(t, 1, 1)
	spec := model.Balanced(2, 0.1, 0)
	_, e := newExec(t, g, spec, model.OneToOne(2), Options{})
	if _, err := e.RunItems(100); err != nil {
		t.Fatal(err)
	}
	for i, l := range e.Latencies() {
		if l < 0.2-1e-9 {
			t.Fatalf("item %d latency %v below service floor 0.2", i, l)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g1 := het(t, 1, 2)
	g2 := het(t, 1, 2)
	spec := model.Balanced(2, 0.1, 100)
	_, e1 := newExec(t, g1, spec, model.OneToOne(2), Options{})
	_, e2 := newExec(t, g2, spec, model.OneToOne(2), Options{})
	m1, err := e1.RunItems(200)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e2.RunItems(200)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Fatalf("same configuration, different makespans: %v vs %v", m1, m2)
	}
}

func TestCoresAllowParallelService(t *testing.T) {
	quad, err := grid.NewGrid(grid.LANLink, &grid.Node{Name: "q", Speed: 1, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "only", Work: 0.1, Replicable: true},
	}}
	_, e := newExec(t, quad, spec, model.FromNodes(0), Options{MaxInFlight: 8})
	const n = 400
	makespan, err := e.RunItems(n)
	if err != nil {
		t.Fatal(err)
	}
	measured := float64(n) / makespan
	if measured < 35 {
		t.Fatalf("quad-core throughput = %v, want ~40", measured)
	}
}

func TestPoissonWithTotalItems(t *testing.T) {
	g := het(t, 1)
	spec := model.Balanced(1, 0.01, 0)
	_, e := newExec(t, g, spec, model.FromNodes(0), Options{
		ArrivalRate: 5, Seed: 3, TotalItems: 50,
	})
	e.Start()
	for e.eng.Step() {
	}
	if e.Done() != 50 || e.admitted != 50 {
		t.Fatalf("done=%d admitted=%d, want 50", e.Done(), e.admitted)
	}
}

func TestWorkSamplerPanicsOnInvalid(t *testing.T) {
	g := het(t, 1)
	spec := model.Balanced(1, 0.1, 0)
	_, e := newExec(t, g, spec, model.FromNodes(0), Options{
		WorkSampler: func(stage, seq int) float64 { return -1 },
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative sampled work")
		}
	}()
	e.RunItems(1)
}
