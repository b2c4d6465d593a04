package model

import (
	"math"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/trace"
)

func testGrid(t *testing.T, speeds ...float64) *grid.Grid {
	t.Helper()
	g, err := grid.Heterogeneous(speeds, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPredictOneToOneBalanced(t *testing.T) {
	g := testGrid(t, 1, 1, 1)
	spec := Balanced(3, 0.1, 0) // no data movement
	p, err := Predict(g, spec, OneToOne(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Each node does 0.1 s per item → 10 items/s.
	if math.Abs(p.Throughput-10) > 1e-9 {
		t.Fatalf("throughput = %v, want 10", p.Throughput)
	}
	if p.BottleneckNode < 0 {
		t.Fatal("compute should be the bottleneck")
	}
	if !math.IsInf(p.LinkBound, 1) {
		t.Fatalf("no traffic should mean infinite link bound, got %v", p.LinkBound)
	}
}

func TestPredictColocationHalvesThroughput(t *testing.T) {
	g := testGrid(t, 1, 1, 1)
	spec := Balanced(3, 0.1, 0)
	all, err := Predict(g, spec, FromNodes(0, 0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// One node does 0.3 s per item → 3.33 items/s.
	if math.Abs(all.Throughput-1/0.3) > 1e-9 {
		t.Fatalf("single-node throughput = %v, want %v", all.Throughput, 1/0.3)
	}
}

func TestPredictLoadSlowsNode(t *testing.T) {
	g := testGrid(t, 1, 1)
	spec := Balanced(2, 0.1, 0)
	idle, _ := Predict(g, spec, OneToOne(2), nil)
	loaded, err := Predict(g, spec, OneToOne(2), []float64{0.5, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loaded.Throughput-idle.Throughput/2) > 1e-9 {
		t.Fatalf("50%% load should halve throughput: idle=%v loaded=%v", idle.Throughput, loaded.Throughput)
	}
	if loaded.BottleneckNode != 0 {
		t.Fatalf("bottleneck should be the loaded node, got %d", loaded.BottleneckNode)
	}
}

func TestPredictLoadsClamped(t *testing.T) {
	g := testGrid(t, 1)
	spec := Balanced(1, 0.1, 0)
	p, err := Predict(g, spec, FromNodes(0), []float64{5}) // absurd load
	if err != nil {
		t.Fatal(err)
	}
	if p.Throughput <= 0 || math.IsInf(p.Throughput, 0) || math.IsNaN(p.Throughput) {
		t.Fatalf("clamped load should keep throughput finite positive: %v", p.Throughput)
	}
	n, err := Predict(g, spec, FromNodes(0), []float64{-3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n.Throughput-10) > 1e-9 {
		t.Fatalf("negative load should clamp to idle: %v", n.Throughput)
	}
}

func TestPredictReplicationSplitsWork(t *testing.T) {
	g := testGrid(t, 1, 1, 1)
	spec := PipelineSpec{Stages: []StageSpec{
		{Name: "light", Work: 0.05},
		{Name: "heavy", Work: 0.2, Replicable: true},
	}}
	plain, _ := Predict(g, spec, FromNodes(0, 1), nil)
	if math.Abs(plain.Throughput-5) > 1e-9 {
		t.Fatalf("plain = %v, want 5 (heavy stage bound)", plain.Throughput)
	}
	repl, err := Predict(g, spec, FromNodes(0, 1).WithReplicas(1, 1, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy stage split across 2 nodes: each 0.1 s per item → bound 10;
	// light stage bound 20 → overall 10.
	if math.Abs(repl.Throughput-10) > 1e-9 {
		t.Fatalf("replicated = %v, want 10", repl.Throughput)
	}
}

func TestPredictCoresScaleNode(t *testing.T) {
	g, err := grid.NewGrid(grid.LANLink,
		&grid.Node{Name: "quad", Speed: 1, Cores: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := Balanced(2, 0.1, 0)
	p, err := Predict(g, spec, FromNodes(0, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	// 0.2 s per item over 4 cores → 20 items/s.
	if math.Abs(p.Throughput-20) > 1e-9 {
		t.Fatalf("quad-core throughput = %v, want 20", p.Throughput)
	}
}

func TestPredictLinkBound(t *testing.T) {
	g := testGrid(t, 1, 1)
	// Slow link: 1 MB/s. Items carry 0.5 MB between the stages.
	if err := g.SetLink(0, 1, grid.Link{Latency: 0.001, Bandwidth: 1e6}); err != nil {
		t.Fatal(err)
	}
	spec := PipelineSpec{
		Stages: []StageSpec{
			{Name: "a", Work: 0.01, OutBytes: 0.5e6},
			{Name: "b", Work: 0.01},
		},
	}
	p, err := Predict(g, spec, OneToOne(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Link bound: 1e6 / 0.5e6 = 2 items/s, well below the 100/s compute bound.
	if math.Abs(p.Throughput-2) > 1e-9 {
		t.Fatalf("throughput = %v, want 2 (link-bound)", p.Throughput)
	}
	if p.BottleneckNode != -1 {
		t.Fatalf("bottleneck should be a link, got node %d", p.BottleneckNode)
	}
	// Co-locating both stages removes the traffic entirely.
	co, _ := Predict(g, spec, FromNodes(0, 0), nil)
	if co.Throughput <= p.Throughput {
		t.Fatalf("co-location should beat the slow link: %v vs %v", co.Throughput, p.Throughput)
	}
}

func TestPredictSourceSinkTraffic(t *testing.T) {
	g := testGrid(t, 1, 1)
	if err := g.SetLink(0, 1, grid.Link{Latency: 0.001, Bandwidth: 1e6}); err != nil {
		t.Fatal(err)
	}
	// Inputs of 2 MB arrive at node 0 (source) but stage runs on node 1.
	spec := PipelineSpec{
		Stages:  []StageSpec{{Name: "only", Work: 0.001}},
		InBytes: 2e6,
		Source:  0,
		Sink:    0,
	}
	p, err := Predict(g, spec, FromNodes(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Throughput-0.5) > 1e-9 {
		t.Fatalf("ingress-bound throughput = %v, want 0.5", p.Throughput)
	}
	// Running the stage on the source node avoids the transfer.
	local, _ := Predict(g, spec, FromNodes(0), nil)
	if local.Throughput < 100 {
		t.Fatalf("local mapping should be compute-bound: %v", local.Throughput)
	}
}

func TestPredictLatency(t *testing.T) {
	g := testGrid(t, 1, 1)
	if err := g.SetLink(0, 1, grid.Link{Latency: 0.5, Bandwidth: 1e9}); err != nil {
		t.Fatal(err)
	}
	spec := PipelineSpec{
		Stages: []StageSpec{
			{Name: "a", Work: 1, OutBytes: 10},
			{Name: "b", Work: 2},
		},
		Source: 0,
		Sink:   0,
	}
	p, err := Predict(g, spec, OneToOne(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Latency: service 1 + link 0.5 + service 2 + link back 0.5 ≈ 4.
	if math.Abs(p.Latency-4) > 0.01 {
		t.Fatalf("latency = %v, want ~4", p.Latency)
	}
}

func TestPredictErrors(t *testing.T) {
	g := testGrid(t, 1)
	spec := Balanced(2, 0.1, 0)
	if _, err := Predict(g, spec, FromNodes(0), nil); err == nil {
		t.Fatal("stage-count mismatch accepted")
	}
	if _, err := Predict(g, spec, FromNodes(0, 5), nil); err == nil {
		t.Fatal("invalid node accepted")
	}
	if _, err := Predict(g, spec, FromNodes(0, 0), []float64{0.1, 0.2}); err == nil {
		t.Fatal("wrong loads length accepted")
	}
	bad := PipelineSpec{Stages: []StageSpec{{Work: -1}}}
	if _, err := Predict(g, bad, FromNodes(0), nil); err == nil {
		t.Fatal("negative work accepted")
	}
	if _, err := Predict(g, PipelineSpec{}, Mapping{}, nil); err == nil {
		t.Fatal("empty pipeline accepted")
	}
	negOut := PipelineSpec{Stages: []StageSpec{{Work: 1, OutBytes: -1}}}
	if _, err := Predict(g, negOut, FromNodes(0), nil); err == nil {
		t.Fatal("negative output size accepted")
	}
	if _, err := Predict(g, PipelineSpec{Stages: spec.Stages, InBytes: -1}, FromNodes(0, 0), nil); err == nil {
		t.Fatal("negative input size accepted")
	}
	if _, _, err := Best(g, spec, []Mapping{FromNodes(0, 0), FromNodes(0, 5)}, nil); err == nil {
		t.Fatal("Best accepted an invalid candidate")
	}
}

func TestBestPrefersFasterNode(t *testing.T) {
	g := testGrid(t, 1, 4)
	spec := Balanced(2, 0.1, 0)
	candidates := []Mapping{
		FromNodes(0, 0),
		FromNodes(1, 1),
		OneToOne(2),
	}
	idx, pred, err := Best(g, spec, candidates, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 is 4x faster: both stages there give 4/0.2 = 20/s; split
	// gives min(10, 40) = 10/s. Best is FromNodes(1, 1).
	if idx != 1 {
		t.Fatalf("Best picked %d (%s), want 1", idx, candidates[idx])
	}
	if math.Abs(pred.Throughput-20) > 1e-9 {
		t.Fatalf("best throughput = %v, want 20", pred.Throughput)
	}
}

func TestBestDeterministicTieBreak(t *testing.T) {
	g := testGrid(t, 1, 1)
	spec := Balanced(1, 0.1, 0)
	idx, _, err := Best(g, spec, []Mapping{FromNodes(0), FromNodes(1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("tie should break to the first candidate, got %d", idx)
	}
	if _, _, err := Best(g, spec, nil, nil); err == nil {
		t.Fatal("empty candidates accepted")
	}
}

func TestPredictMatchesHandComputedHeterogeneousCase(t *testing.T) {
	// 3 stages, nodes of speed 1/2/4, mapping (0,1,1):
	//   node0: 0.12/1 = 0.12 s/item → 8.33/s
	//   node1: (0.12+0.12)/2 = 0.12 s/item → 8.33/s
	g := testGrid(t, 1, 2, 4)
	spec := Balanced(3, 0.12, 0)
	p, err := Predict(g, spec, FromNodes(0, 1, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Throughput-1/0.12) > 1e-9 {
		t.Fatalf("throughput = %v, want %v", p.Throughput, 1/0.12)
	}
}

func TestPredictWithLoadedTraceGrid(t *testing.T) {
	// Ensure Predict works against nodes carrying live traces (loads
	// are whatever the caller estimated, traces irrelevant here).
	g, err := grid.NewGrid(grid.LANLink,
		&grid.Node{Name: "a", Speed: 1, Cores: 1, Load: trace.Constant(0.3)},
		&grid.Node{Name: "b", Speed: 1, Cores: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := Balanced(2, 0.1, 0)
	p, err := Predict(g, spec, OneToOne(2), []float64{0.3, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (0.1 / 0.7)
	if math.Abs(p.Throughput-want) > 1e-9 {
		t.Fatalf("throughput = %v, want %v", p.Throughput, want)
	}
}
