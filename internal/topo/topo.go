// Package topo defines the stage-graph intermediate representation
// shared by every layer of the system: the analytic model predicts on
// it, the scheduler searches mappings over its stages, the simulated
// executor routes completions along its edges, and the live runtime
// wires goroutine stages along them.
//
// A Graph is a DAG of stages listed in topological order. Data-flow
// semantics are carried by the node degrees:
//
//   - out-degree 1: plain forwarding (the linear-pipeline case);
//   - out-degree > 1: a SPLIT — each completed item emits one part
//     along every out-edge, and the parts travel independently;
//   - in-degree > 1: a MERGE — the stage joins exactly one part per
//     in-edge for each item before it starts service, so the skeleton
//     stays 1-for-1 end to end (one output leaves the exit stage per
//     item admitted at the entry stage).
//
// Each edge is typed by its payload size (Bytes per item), which is
// what the model charges to links and the executor pays as a transfer.
//
// Structural contract (enforced by Validate): stages are listed in a
// topological order (every edge goes from a lower to a higher index),
// there is exactly one entry stage (index 0) and one exit stage (the
// last index), every stage lies on some entry→exit path, and edges are
// not duplicated. The linear pipelines of the original reproduction
// are the special case where the edge set is exactly {i → i+1}, which
// Linear reports. Consumers walk the edges whatever the shape.
//
// New, Chain and Diamond derive the adjacency, and nothing writes a
// Graph after its constructor returns, so many goroutines may read one.
package topo

import (
	"fmt"
	"strings"
)

// Stage is one node of the graph: a unit of per-item computation.
type Stage struct {
	// Name labels the stage in tables and logs.
	Name string
	// Work is the mean per-item service demand in reference-seconds
	// (seconds on an unloaded speed-1.0 node).
	Work float64
	// OutBytes is the default size of the message each processed item
	// emits (used for edges that do not override Bytes, and for the
	// exit stage's message to the sink).
	OutBytes float64
	// Replicable marks stages that keep no inter-item state and may be
	// farmed across several nodes by the adaptivity engine.
	Replicable bool
}

// Edge is one typed data-flow arc between two stages.
type Edge struct {
	// From and To are stage indices; From < To (stages are listed in
	// topological order).
	From, To int
	// Bytes is the per-item payload size on this edge. The Chain and
	// facade builders default it to the producing stage's OutBytes.
	Bytes float64
}

// Graph is a stage DAG, built with New, Chain or Diamond. A Graph
// literal has no adjacency, so Validate rejects it.
type Graph struct {
	Stages []Stage
	Edges  []Edge

	// Derived adjacency, built by the constructors. Indexed by stage;
	// values are indices into Edges.
	out, in [][]int
}

// Chain builds the linear pipeline graph: stage i feeds stage i+1,
// each edge carrying the producer's OutBytes. This is the identity
// embedding of the original linear model into the IR.
func Chain(stages ...Stage) *Graph {
	g := &Graph{Stages: append([]Stage(nil), stages...)}
	for i := 0; i+1 < len(stages); i++ {
		g.Edges = append(g.Edges, Edge{From: i, To: i + 1, Bytes: stages[i].OutBytes})
	}
	g.buildAdj()
	return g
}

// New assembles a graph from stages and explicit edges. Edges with
// Bytes < 0 inherit the producing stage's OutBytes. The result is
// validated.
func New(stages []Stage, edges []Edge) (*Graph, error) {
	g := &Graph{
		Stages: append([]Stage(nil), stages...),
		Edges:  append([]Edge(nil), edges...),
	}
	for i := range g.Edges {
		if g.Edges[i].Bytes < 0 {
			if f := g.Edges[i].From; f >= 0 && f < len(g.Stages) {
				g.Edges[i].Bytes = g.Stages[f].OutBytes
			}
		}
	}
	g.buildAdj()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// NumStages returns the stage count.
func (g *Graph) NumStages() int { return len(g.Stages) }

// buildAdj derives the adjacency lists from Edges.
func (g *Graph) buildAdj() {
	n := len(g.Stages)
	g.out = make([][]int, n)
	g.in = make([][]int, n)
	for ei, e := range g.Edges {
		if e.From >= 0 && e.From < n {
			g.out[e.From] = append(g.out[e.From], ei)
		}
		if e.To >= 0 && e.To < n {
			g.in[e.To] = append(g.in[e.To], ei)
		}
	}
}

// OutEdges returns the indices (into Edges) of stage i's out-edges, in
// edge-list order. Shared slice; do not mutate.
func (g *Graph) OutEdges(i int) []int { return g.out[i] }

// InEdges returns the indices (into Edges) of stage i's in-edges, in
// edge-list order. Shared slice; do not mutate.
func (g *Graph) InEdges(i int) []int { return g.in[i] }

// InDegree returns the number of in-edges of stage i.
func (g *Graph) InDegree(i int) int { return len(g.in[i]) }

// Entry returns the entry stage index (always 0 on a valid graph).
func (g *Graph) Entry() int { return 0 }

// Exit returns the exit stage index (always NumStages-1 on a valid
// graph).
func (g *Graph) Exit() int { return len(g.Stages) - 1 }

// InBytesOf returns the total per-item payload entering stage i over
// its in-edges (for the entry stage, which has none, it returns the
// provided source message size). It is what a consumer pays to move a
// fully-joined item of that stage, e.g. on a migration.
func (g *Graph) InBytesOf(i int, sourceBytes float64) float64 {
	if len(g.in[i]) == 0 {
		return sourceBytes
	}
	b := 0.0
	for _, ei := range g.in[i] {
		b += g.Edges[ei].Bytes
	}
	return b
}

// Linear reports whether the graph is the plain chain {i → i+1}. Only
// what needs a chain reads it: the scheduler's branch-and-bound link
// bound and the open-system latency model.
func (g *Graph) Linear() bool {
	if len(g.Edges) != len(g.Stages)-1 {
		return false
	}
	for i, e := range g.Edges {
		if e.From != i || e.To != i+1 {
			return false
		}
	}
	return true
}

// Validate checks the structural contract documented on the package
// and that a constructor derived the adjacency. It writes nothing.
func (g *Graph) Validate() error {
	n := len(g.Stages)
	if n == 0 {
		return fmt.Errorf("topo: graph has no stages")
	}
	for i, st := range g.Stages {
		if st.Work < 0 {
			return fmt.Errorf("topo: stage %d (%s) has negative work %v", i, st.Name, st.Work)
		}
		if st.OutBytes < 0 {
			return fmt.Errorf("topo: stage %d (%s) has negative output size %v", i, st.Name, st.OutBytes)
		}
	}
	for k, e := range g.Edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("topo: edge %d→%d out of range (stages: %d)", e.From, e.To, n)
		}
		if e.From >= e.To {
			return fmt.Errorf("topo: edge %d→%d violates topological stage order (need From < To)", e.From, e.To)
		}
		if e.Bytes < 0 {
			return fmt.Errorf("topo: edge %d→%d has negative payload %v", e.From, e.To, e.Bytes)
		}
		for _, d := range g.Edges[:k] {
			if d.From == e.From && d.To == e.To {
				return fmt.Errorf("topo: duplicate edge %d→%d", e.From, e.To)
			}
		}
	}
	// Exactly one entry (stage 0) and one exit (stage n-1); everything
	// lies on an entry→exit path. Every edge runs From < To inside
	// [0, n), so stage 0 has no in-edge and stage n-1 no out-edge.
	for i := 0; i < n; i++ {
		in, out := i == 0, i == n-1
		for _, e := range g.Edges {
			in = in || e.To == i
			out = out || e.From == i
		}
		if !in {
			return fmt.Errorf("topo: stage %d (%s) is unreachable (no in-edges; only stage 0 may be the entry)", i, g.Stages[i].Name)
		}
		if !out {
			return fmt.Errorf("topo: stage %d (%s) is a dead end (no out-edges; only the last stage may be the exit)", i, g.Stages[i].Name)
		}
	}
	if len(g.in) != n {
		return fmt.Errorf("topo: graph has no adjacency (build it with New, Chain or Diamond)")
	}
	return nil
}

// String renders the graph compactly: "a → {b, c} → d" style per-edge
// listing, for logs and experiment tables.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph(%d stages", len(g.Stages))
	if g.Linear() {
		b.WriteString(", linear")
	}
	b.WriteString("): ")
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s→%s", g.name(e.From), g.name(e.To))
	}
	return b.String()
}

func (g *Graph) name(i int) string {
	if g.Stages[i].Name != "" {
		return g.Stages[i].Name
	}
	return fmt.Sprintf("#%d", i)
}

// Diamond builds the canonical fan-out/fan-in fixture used by tests
// and experiment F8: head → {k parallel branch stages} → tail. Each
// branch stage gets branchWork demand; edge payloads default to the
// producers' OutBytes.
func Diamond(head Stage, branches []Stage, tail Stage) (*Graph, error) {
	if len(branches) < 2 {
		return nil, fmt.Errorf("topo: diamond needs at least 2 branches, got %d", len(branches))
	}
	stages := make([]Stage, 0, len(branches)+2)
	stages = append(stages, head)
	stages = append(stages, branches...)
	stages = append(stages, tail)
	var edges []Edge
	tailIdx := len(stages) - 1
	for bi := range branches {
		b := 1 + bi
		edges = append(edges, Edge{From: 0, To: b, Bytes: head.OutBytes})
		edges = append(edges, Edge{From: b, To: tailIdx, Bytes: branches[bi].OutBytes})
	}
	return New(stages, edges)
}
