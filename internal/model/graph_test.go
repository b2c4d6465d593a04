package model

import (
	"math"
	"sync"
	"testing"

	"gridpipe/internal/grid"
	"gridpipe/internal/topo"
)

func diamondSpec(t *testing.T) PipelineSpec {
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
	spec, err := FromGraph(g, 1e5)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// An explicit chain topology must predict exactly what the implicit
// linear spec predicts — the chain fast path is the identity.
func TestPredictChainTopoIdentity(t *testing.T) {
	g, err := grid.Heterogeneous([]float64{1, 2, 1.5}, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	linear := Balanced(3, 0.2, 1e5)
	withTopo := linear
	withTopo.Topo = linear.Graph()
	m := FromNodes(0, 1, 2)
	loads := []float64{0.1, 0, 0.3}

	p1, err := Predict(g, linear, m, loads)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Predict(g, withTopo, m, loads)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Throughput != p2.Throughput || p1.Latency != p2.Latency ||
		p1.LinkBound != p2.LinkBound || p1.BottleneckNode != p2.BottleneckNode {
		t.Fatalf("chain-topo prediction diverged:\nimplicit %+v\nexplicit %+v", p1, p2)
	}
}

// The diamond's branches overlap in time, so its empty-pipeline
// latency beats a linear chain of the same stages, while its
// saturation throughput matches (same bottleneck stage work).
func TestPredictDiamondLatencyBeatsChain(t *testing.T) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	dia := diamondSpec(t)
	chain := PipelineSpec{InBytes: dia.InBytes, Stages: dia.Stages}
	m := OneToOne(4)

	pd, err := Predict(g, dia, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := Predict(g, chain, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pd.Throughput-pc.Throughput) > 1e-9 {
		t.Fatalf("throughput: diamond %v vs chain %v (same bottleneck expected)", pd.Throughput, pc.Throughput)
	}
	// One branch's service (0.3) overlaps the other's: latency should
	// shrink by just under that much (transfers differ slightly).
	if pd.Latency >= pc.Latency-0.25 {
		t.Fatalf("latency: diamond %v not sufficiently below chain %v", pd.Latency, pc.Latency)
	}
}

// A split charges its payload to every out-edge: with both branches on
// remote nodes, the head's outbound traffic doubles versus a chain,
// which the link bound must reflect.
func TestPredictSplitChargesEveryEdge(t *testing.T) {
	dia := diamondSpec(t)
	g, err := grid.Homogeneous(4, 1, grid.Link{Latency: 0, Bandwidth: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	// All stages on node 0 except the branches on nodes 1 and 2: the
	// head sends 1e5 to each branch over distinct links, each branch
	// returns 1e5 to the tail.
	m := FromNodes(0, 1, 2, 0)
	p, err := Predict(g, dia, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Busiest links carry exactly one branch payload: bound = 1e6/1e5.
	if want := 10.0; math.Abs(p.LinkBound-want) > 1e-9 {
		t.Fatalf("link bound = %v, want %v", p.LinkBound, want)
	}

	// Merge in-bytes: the tail's migration payload is both parts.
	if got := dia.Graph().InBytesOf(3, dia.InBytes); got != 2e5 {
		t.Fatalf("merge in-bytes = %v", got)
	}
}

func TestFromGraphRejectsInvalidGraphs(t *testing.T) {
	if _, err := FromGraph(nil, 0); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := FromGraph(&topo.Graph{}, 0); err == nil {
		t.Error("graph with no stages accepted")
	}
	spec := Balanced(2, 0.1, 0)
	spec.Topo = &topo.Graph{Stages: spec.Stages, Edges: []topo.Edge{{From: 1, To: 0}}}
	if err := spec.Validate(); err == nil {
		t.Error("spec over an invalid topology accepted")
	}
}

func TestValidateTopoMismatch(t *testing.T) {
	spec := diamondSpec(t)
	spec.Stages = spec.Stages[:3] // drop a stage but keep the graph
	if err := spec.Validate(); err == nil {
		t.Fatal("stage/topology length mismatch accepted")
	}
}

// Mapping search over a diamond: replication improvement still honours
// the graph (bottleneck branches replicate, throughput prediction
// rises).
func TestBestOverDiamond(t *testing.T) {
	dia := diamondSpec(t)
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	cands := []Mapping{
		FromNodes(0, 0, 0, 0),
		OneToOne(4),
		FromNodes(0, 1, 2, 3),
	}
	idx, pred, err := Best(g, dia, cands, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idx == 0 {
		t.Fatalf("Best picked the single-node mapping (pred %+v)", pred)
	}
	if pred.Throughput <= 1/0.4 {
		t.Fatalf("spread mapping throughput = %v, want > %v", pred.Throughput, 1/0.4)
	}
}

// PredictInto allocates nothing on a warm scratch whatever the spec's
// graph: a nil Topo (walked as the scratch's chain), a chain built by
// FromGraph and a diamond are only read.
func TestPredictIntoZeroAllocOnGraphs(t *testing.T) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	linear := Balanced(4, 0.2, 1e5)
	chain, err := FromGraph(linear.Graph(), 1e5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec PipelineSpec
	}{{"nil Topo", linear}, {"FromGraph chain", chain}, {"diamond", diamondSpec(t)}} {
		s := NewPredictScratch()
		m := FromNodes(0, 1, 2, 3)
		a := testing.AllocsPerRun(20, func() {
			if _, err := PredictInto(g, c.spec, m, nil, s); err != nil {
				t.Fatal(err)
			}
		})
		if a != 0 {
			t.Errorf("%s: %v allocations per PredictInto, want 0", c.name, a)
		}
	}
}

// One graph spec rated from two goroutines at once: the model only
// reads the graph, so under -race this passes and both goroutines see
// the sequential prediction.
func TestPredictSharedGraphConcurrent(t *testing.T) {
	spec := diamondSpec(t)
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	m := FromNodes(0, 1, 2, 3)
	want, err := Predict(g, spec, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p, err := Predict(g, spec, m, nil)
				if err != nil || p.Throughput != want.Throughput || p.Latency != want.Latency {
					t.Errorf("concurrent prediction %+v (err %v), want %+v", p, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// PredictLatency walks a chain: a diamond is refused rather than rated
// as if its branches ran one after the other, and a chain built by
// FromGraph rates exactly as the nil-Topo chain.
func TestPredictLatencyNeedsChain(t *testing.T) {
	g, err := grid.Homogeneous(4, 1, grid.LANLink)
	if err != nil {
		t.Fatal(err)
	}
	m := FromNodes(0, 1, 2, 3)
	if _, err := PredictLatency(g, diamondSpec(t), m, nil, 1, 0); err == nil {
		t.Error("PredictLatency rated a diamond")
	}
	linear := Balanced(4, 0.2, 1e5)
	chain, err := FromGraph(linear.Graph(), 1e5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PredictLatency(g, linear, m, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := PredictLatency(g, chain, m, nil, 1, 0); err != nil || got != want {
		t.Errorf("FromGraph chain: %+v (err %v), want %+v", got, err, want)
	}
}
