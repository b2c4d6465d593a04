package topo

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

func stage(name string, work, out float64) Stage {
	return Stage{Name: name, Work: work, OutBytes: out, Replicable: true}
}

func TestChainIsLinearAndValid(t *testing.T) {
	g := Chain(stage("a", 0.1, 100), stage("b", 0.2, 200), stage("c", 0.3, 0))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Linear() {
		t.Fatal("chain not recognised as linear")
	}
	if g.Edges[0].Bytes != 100 || g.Edges[1].Bytes != 200 {
		t.Fatalf("chain edge bytes = %+v", g.Edges)
	}
	if g.Entry() != 0 || g.Exit() != 2 {
		t.Fatalf("entry/exit = %d/%d", g.Entry(), g.Exit())
	}
}

func TestSingleStageGraph(t *testing.T) {
	g := Chain(stage("only", 0.5, 10))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Linear() {
		t.Fatal("single stage should be linear")
	}
}

func TestDiamond(t *testing.T) {
	g, err := Diamond(
		stage("head", 0.1, 1000),
		[]Stage{stage("left", 0.3, 500), stage("right", 0.3, 700)},
		stage("tail", 0.1, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.Linear() {
		t.Fatal("diamond reported linear")
	}
	if d := len(g.OutEdges(0)); d != 2 {
		t.Fatalf("head out-degree = %d", d)
	}
	if d := g.InDegree(3); d != 2 {
		t.Fatalf("tail in-degree = %d", d)
	}
	// Split edges carry the head's full message; the merge's inbound
	// payload is the sum of the branch parts.
	if got := g.InBytesOf(1, 0); got != 1000 {
		t.Fatalf("branch in-bytes = %v", got)
	}
	if got := g.InBytesOf(3, 0); got != 1200 {
		t.Fatalf("merge in-bytes = %v", got)
	}
	if got := g.InBytesOf(0, 42); got != 42 {
		t.Fatalf("entry in-bytes = %v", got)
	}
	if s := g.String(); !strings.Contains(s, "head→left") || strings.Contains(s, "linear") {
		t.Fatalf("String = %q", s)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		stages []Stage
		edges  []Edge
		want   string
	}{
		{"empty", nil, nil, "no stages"},
		{"negative work", []Stage{{Name: "a", Work: -1}}, nil, "negative work"},
		{"negative output size", []Stage{{Name: "a", OutBytes: -1}}, nil, "negative output"},
		{"edge out of range", []Stage{stage("a", 1, 0), stage("b", 1, 0)},
			[]Edge{{From: 0, To: 5}}, "out of range"},
		{"backward edge", []Stage{stage("a", 1, 0), stage("b", 1, 0)},
			[]Edge{{From: 1, To: 0}}, "topological"},
		{"self edge", []Stage{stage("a", 1, 0), stage("b", 1, 0)},
			[]Edge{{From: 0, To: 0}}, "topological"},
		{"duplicate edge", []Stage{stage("a", 1, 0), stage("b", 1, 0)},
			[]Edge{{From: 0, To: 1}, {From: 0, To: 1}}, "duplicate"},
		{"unreachable stage", []Stage{stage("a", 1, 0), stage("b", 1, 0), stage("c", 1, 0)},
			[]Edge{{From: 0, To: 2}}, "unreachable"},
		{"dead end", []Stage{stage("a", 1, 0), stage("b", 1, 0), stage("c", 1, 0)},
			[]Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 2}, {From: 1, To: 1}}, "topological"},
		{"negative edge bytes", []Stage{stage("a", 1, 0), stage("b", 1, 0)},
			[]Edge{{From: 0, To: 1, Bytes: -5}}, "negative payload"},
	}
	for _, c := range cases {
		g := &Graph{Stages: c.stages, Edges: c.edges}
		err := g.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}

	// A stage with out-edges but no in-edges besides the entry.
	g := &Graph{
		Stages: []Stage{stage("a", 1, 0), stage("mid", 1, 0), stage("z", 1, 0)},
		Edges:  []Edge{{From: 0, To: 2}, {From: 1, To: 2}},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Errorf("second entry: err = %v", err)
	}
	// A dead-end interior stage.
	g = &Graph{
		Stages: []Stage{stage("a", 1, 0), stage("dead", 1, 0), stage("z", 1, 0)},
		Edges:  []Edge{{From: 0, To: 1}, {From: 0, To: 2}},
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "dead end") {
		t.Errorf("dead end: err = %v", err)
	}
	if _, err := New(g.Stages, g.Edges); err == nil {
		t.Error("New accepted a graph with a dead end")
	}
}

// String marks a chain as linear and names an unnamed stage by index;
// Linear is false for any edge set other than i → i+1.
func TestGraphString(t *testing.T) {
	if got := Chain(stage("a", 1, 0), Stage{Work: 1}).String(); got != "graph(2 stages, linear): a→#1" {
		t.Errorf("chain renders %q", got)
	}
	g := &Graph{Stages: []Stage{stage("a", 1, 0), stage("b", 1, 0), stage("c", 1, 0)},
		Edges: []Edge{{From: 0, To: 2}, {From: 1, To: 2}}}
	if g.Linear() {
		t.Error("two edges into the last stage read as linear")
	}
}

func TestNewDefaultsEdgeBytes(t *testing.T) {
	g, err := New(
		[]Stage{stage("a", 1, 123), stage("b", 1, 0)},
		[]Edge{{From: 0, To: 1, Bytes: -1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges[0].Bytes != 123 {
		t.Fatalf("defaulted bytes = %v", g.Edges[0].Bytes)
	}
}

func TestDiamondNeedsTwoBranches(t *testing.T) {
	if _, err := Diamond(stage("h", 1, 0), []Stage{stage("b", 1, 0)}, stage("t", 1, 0)); err == nil {
		t.Fatal("single-branch diamond accepted")
	}
}

// A constructed graph answers its adjacency without a Validate call,
// and reading it writes nothing: two goroutines query one fresh chain
// at once (run under -race).
func TestChainAdjacencyWithoutValidate(t *testing.T) {
	g := Chain(stage("a", 1, 10), stage("b", 1, 20), stage("c", 1, 0))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range g.Stages {
				in, out := g.InEdges(i), g.OutEdges(i)
				wantIn, wantOut := []int{i - 1}, []int{i}
				if i == 0 {
					wantIn = nil
				}
				if i == 2 {
					wantOut = nil
				}
				if !slices.Equal(in, wantIn) || !slices.Equal(out, wantOut) {
					t.Errorf("stage %d: in %v out %v, want %v %v", i, in, out, wantIn, wantOut)
				}
			}
		}()
	}
	wg.Wait()
}

// Validate is a pure check: on a valid graph it allocates nothing.
func TestValidateAllocatesNothing(t *testing.T) {
	g, err := Diamond(stage("h", 1, 1), []Stage{stage("l", 1, 1), stage("r", 1, 1)}, stage("t", 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(20, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); a != 0 {
		t.Fatalf("%v allocations per Validate, want 0", a)
	}
}

// A Graph literal carries no adjacency, so Validate refuses it even
// when its structure is sound.
func TestValidateRejectsLiteral(t *testing.T) {
	g := &Graph{Stages: []Stage{stage("a", 1, 0), stage("b", 1, 0)}, Edges: []Edge{{From: 0, To: 1}}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "adjacency") {
		t.Fatalf("err = %v, want the missing adjacency named", err)
	}
}
