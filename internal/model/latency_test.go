package model

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/topo"
)

func latGrid(t *testing.T, speeds ...float64) *grid.Grid {
	t.Helper()
	g, err := grid.Heterogeneous(speeds, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPredictLatencyMD1ClosedForm(t *testing.T) {
	// Single deterministic stage, s = 0.1, λ = 2 → ρ = 0.2.
	// M/D/1: Wq = λ E[S²]/(2(1-ρ)) = 2·0.01/(2·0.8) = 0.0125.
	g := latGrid(t, 1)
	spec := Balanced(1, 0.1, 0)
	p, err := PredictLatency(g, spec, FromNodes(0), nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.WaitPart-0.0125) > 1e-9 {
		t.Fatalf("WaitPart = %v, want 0.0125", p.WaitPart)
	}
	if math.Abs(p.Mean-0.1125) > 1e-6 {
		t.Fatalf("Mean = %v, want 0.1125", p.Mean)
	}
	if math.Abs(p.MaxUtilisation-0.2) > 1e-9 {
		t.Fatalf("rho = %v, want 0.2", p.MaxUtilisation)
	}
}

func TestPredictLatencyMM1ClosedForm(t *testing.T) {
	// Exponential service (cv=1): M/M/1 W = s/(1-ρ).
	g := latGrid(t, 1)
	spec := Balanced(1, 0.1, 0)
	lambda := 5.0 // ρ = 0.5
	p, err := PredictLatency(g, spec, FromNodes(0), nil, lambda, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.1 / (1 - 0.5)
	if math.Abs(p.Mean-want) > 1e-9 {
		t.Fatalf("Mean = %v, want %v (M/M/1)", p.Mean, want)
	}
}

func TestPredictLatencyGrowsWithLoadAndRate(t *testing.T) {
	g := latGrid(t, 1, 1)
	spec := Balanced(2, 0.1, 0)
	m := OneToOne(2)
	low, err := PredictLatency(g, spec, m, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	high, err := PredictLatency(g, spec, m, nil, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if high.Mean <= low.Mean {
		t.Fatalf("latency did not grow with rate: %v vs %v", low.Mean, high.Mean)
	}
	loaded, err := PredictLatency(g, spec, m, []float64{0.5, 0}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Mean <= low.Mean {
		t.Fatalf("latency did not grow with background load: %v vs %v", low.Mean, loaded.Mean)
	}
}

func TestPredictLatencySaturationError(t *testing.T) {
	g := latGrid(t, 1)
	spec := Balanced(1, 0.1, 0)
	if _, err := PredictLatency(g, spec, FromNodes(0), nil, 11, 0); err == nil {
		t.Fatal("saturated node accepted")
	}
}

func TestPredictLatencyReplicationReducesWait(t *testing.T) {
	g := latGrid(t, 1, 1, 1)
	spec := PipelineSpec{Stages: []StageSpec{{Name: "h", Work: 0.2, Replicable: true}}}
	lambda := 4.0 // ρ = 0.8 unreplicated
	plain, err := PredictLatency(g, spec, FromNodes(0), nil, lambda, 0)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := PredictLatency(g, spec, FromNodes(0).WithReplicas(0, 0, 1), nil, lambda, 0)
	if err != nil {
		t.Fatal(err)
	}
	if repl.WaitPart >= plain.WaitPart {
		t.Fatalf("replication did not reduce waiting: %v vs %v", repl.WaitPart, plain.WaitPart)
	}
}

func TestPredictLatencyColocationAggregates(t *testing.T) {
	// Both stages on one node double that node's utilisation; the
	// model must see ρ = λ(s1+s2).
	g := latGrid(t, 1)
	spec := Balanced(2, 0.1, 0)
	p, err := PredictLatency(g, spec, FromNodes(0, 0), nil, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.MaxUtilisation-0.6) > 1e-9 {
		t.Fatalf("rho = %v, want 0.6", p.MaxUtilisation)
	}
}

func TestPredictLatencyValidation(t *testing.T) {
	g := latGrid(t, 1)
	spec := Balanced(1, 0.1, 0)
	m := FromNodes(0)
	if _, err := PredictLatency(g, spec, m, nil, 0, 0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := PredictLatency(g, spec, m, nil, 1, -1); err == nil {
		t.Fatal("negative cv accepted")
	}
	if _, err := PredictLatency(g, spec, m, []float64{0.1, 0.1}, 1, 0); err == nil {
		t.Fatal("wrong loads length accepted")
	}
	if _, err := PredictLatency(g, PipelineSpec{}, Mapping{}, nil, 1, 0); err == nil {
		t.Fatal("empty spec accepted")
	}
	if _, err := PredictLatency(g, spec, FromNodes(3), nil, 1, 0); err == nil {
		t.Fatal("invalid mapping accepted")
	}
	// A stage with no work loads no node, but still waits in the
	// queue of the node it visits.
	pass := PipelineSpec{Stages: []StageSpec{{Name: "pass"}, {Name: "work", Work: 0.1}}}
	one, err := PredictLatency(g, spec, m, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	two, err := PredictLatency(g, pass, FromNodes(0, 0), nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if wait := one.Mean - 0.1; math.Abs(two.Mean-(one.Mean+wait)) > 1e-12 {
		t.Fatalf("with a zero-work stage the mean latency is %v, want %v plus one more wait of %v", two.Mean, one.Mean, wait)
	}
}

func TestPredictLatencyTransferFloor(t *testing.T) {
	g := latGrid(t, 1, 1)
	if err := g.SetLink(0, 1, grid.Link{Latency: 0.3, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	spec := PipelineSpec{
		Stages: []StageSpec{
			{Name: "a", Work: 0.05, OutBytes: 10},
			{Name: "b", Work: 0.05},
		},
		Source: 0, Sink: 0,
	}
	p, err := PredictLatency(g, spec, OneToOne(2), nil, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Floor: 0.05 + 0.3 + 0.05 + 0.3 = 0.7.
	if p.ServicePart < 0.69 || p.ServicePart > 0.72 {
		t.Fatalf("ServicePart = %v, want ~0.7", p.ServicePart)
	}
}

// TestPredictLatencyUsesEdgePayload: on a chain given as a Linear graph,
// the hop between two stages carries the edge's Bytes, as in Predict,
// not the producer's OutBytes (0 here). 1e8 bytes over the 10 Mb/s WAN
// link take 80 s.
func TestPredictLatencyUsesEdgePayload(t *testing.T) {
	g, err := grid.Homogeneous(2, 1, grid.WANLink)
	if err != nil {
		t.Fatal(err)
	}
	stages := Balanced(2, 0.1, 0).Stages
	m := FromNodes(0, 1)
	latency := func(bytes float64) (predicted, walked float64) {
		t.Helper()
		graph, err := topo.New(stages, []topo.Edge{{From: 0, To: 1, Bytes: bytes}})
		if err != nil {
			t.Fatal(err)
		}
		spec, err := FromGraph(graph, 0)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PredictLatency(g, spec, m, nil, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Predict(g, spec, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		return pred.Latency, p.ServicePart
	}
	for _, bytes := range []float64{0, 1e8} {
		predicted, walked := latency(bytes)
		if math.Abs(walked-predicted) > 1e-9 {
			t.Errorf("edge Bytes %g: PredictLatency service part %.4f s, Predict latency %.4f s", bytes, walked, predicted)
		}
	}
	if light, _ := latency(0); light > 1 {
		t.Errorf("a 0-byte edge predicted %.4f s", light)
	}
}
