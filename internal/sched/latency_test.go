package sched

import (
	"testing"
	"testing/quick"

	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
)

func TestForLatencyFeasibleBasic(t *testing.T) {
	g := het(t, 1, 1, 1)
	spec := model.Balanced(3, 0.1, 0)
	m, pred, err := (ForLatency{Rate: 5}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(3, 3); err != nil {
		t.Fatal(err)
	}
	// Must sustain the rate.
	if pred.Throughput < 5 {
		t.Fatalf("chosen mapping cannot sustain rate: %v", pred.Throughput)
	}
}

func TestForLatencySpreadsAtHighRate(t *testing.T) {
	// At rho close to 1 on a single node, spreading the stages cuts the
	// waiting dramatically; the search must not co-locate everything.
	g := het(t, 1, 1, 1)
	spec := model.Balanced(3, 0.1, 0)
	m, _, err := (ForLatency{Rate: 9}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodesUsed(m) < 3 {
		t.Fatalf("high-rate mapping under-spread: %s", m)
	}
}

func TestForLatencyCoLocatesAtLowRateWithSlowLinks(t *testing.T) {
	// At trivially low rate the latency is dominated by transfers, so
	// the search should co-locate chatty stages rather than spread.
	g := het(t, 1, 1)
	if err := g.SetLink(0, 1, grid.Link{Latency: 0.5, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.05, OutBytes: 1000},
		{Name: "b", Work: 0.05},
	}}
	m, _, err := (ForLatency{Rate: 0.5}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if nodesUsed(m) != 1 {
		t.Fatalf("low-rate mapping crossed the slow link: %s", m)
	}
}

func TestForLatencyInfeasibleRate(t *testing.T) {
	g := het(t, 1)
	spec := model.Balanced(2, 0.3, 0) // capacity 1/0.6 ≈ 1.67/s
	if _, _, err := (ForLatency{Rate: 5}).Search(g, spec, nil); err == nil {
		t.Fatal("unsustainable rate accepted")
	}
}

func TestForLatencyValidation(t *testing.T) {
	g := het(t, 1)
	if _, _, err := (ForLatency{}).Search(g, model.Balanced(1, 0.1, 0), nil); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, _, err := (ForLatency{Rate: 1}).Search(g, model.PipelineSpec{}, nil); err == nil {
		t.Fatal("empty pipeline accepted")
	}
}

// ForLatency rates by model.PredictLatency, which walks a chain: on a
// diamond it refuses up front instead of ranking by a latency that
// charges both branches one after the other.
func TestForLatencyRefusesDiamond(t *testing.T) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := (ForLatency{Rate: 1}).Search(g, diamondSpec(t), nil); err == nil {
		t.Fatal("ForLatency ranked a diamond")
	}
}

func TestForLatencyBeatsThroughputSearchOnLatency(t *testing.T) {
	// The throughput searchers may pick chatty spreads; at a modest
	// rate, the latency search must never be worse on its own
	// objective.
	g := het(t, 1, 1, 2)
	if err := g.SetLink(0, 2, grid.Link{Latency: 0.2, Bandwidth: 1e8}); err != nil {
		t.Fatal(err)
	}
	if err := g.SetLink(1, 2, grid.Link{Latency: 0.2, Bandwidth: 1e8}); err != nil {
		t.Fatal(err)
	}
	spec := model.PipelineSpec{Stages: []model.StageSpec{
		{Name: "a", Work: 0.1, OutBytes: 1e4},
		{Name: "b", Work: 0.1, OutBytes: 1e4},
		{Name: "c", Work: 0.1},
	}}
	const rate = 2.0
	lm, _, err := (ForLatency{Rate: rate}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm, _, err := (LocalSearch{Seed: 3}).Search(g, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	lLat, err := model.PredictLatency(g, spec, lm, nil, rate, 0)
	if err != nil {
		t.Fatal(err)
	}
	tLat, err := model.PredictLatency(g, spec, tm, nil, rate, 0)
	if err != nil {
		t.Fatal(err)
	}
	if lLat.Mean > tLat.Mean*1.001 {
		t.Fatalf("latency search (%v) worse than throughput search (%v) on latency",
			lLat.Mean, tLat.Mean)
	}
}

// Property: on random instances where exhaustive search is feasible,
// no heuristic beats it and all return valid mappings.
func TestHeuristicsNeverBeatExhaustiveProperty(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		np := 2 + r.Intn(2)
		ns := 2 + r.Intn(3)
		speeds := make([]float64, np)
		for i := range speeds {
			speeds[i] = 0.5 + 2*r.Float64()
		}
		g, err := grid.Heterogeneous(speeds, grid.LANLink)
		if err != nil {
			return false
		}
		stages := make([]model.StageSpec, ns)
		for i := range stages {
			stages[i] = model.StageSpec{Name: "s", Work: 0.02 + 0.2*r.Float64()}
		}
		spec := model.PipelineSpec{Stages: stages}
		_, ex, err := (Exhaustive{}).Search(g, spec, nil)
		if err != nil {
			return false
		}
		for _, s := range []Searcher{ContiguousDP{}, Greedy{}, LocalSearch{Seed: uint64(seed)}} {
			m, p, err := s.Search(g, spec, nil)
			if err != nil {
				return false
			}
			if m.Validate(ns, np) != nil {
				return false
			}
			if p.Throughput > ex.Throughput*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
