package grid

import (
	"fmt"
	"strings"
)

// Grid is a set of nodes plus a full link matrix. Construct with
// NewGrid or the builders in builder.go; the zero value is unusable.
type Grid struct {
	nodes []*Node
	// links[i][j] is the link from node i to node j; links[i][i] is
	// LocalLink.
	links [][]Link
	// churn is the optional node-lifecycle script attached to this
	// grid's scenario (see lifecycle.go); the executor replays it.
	churn *ChurnSchedule
}

// NewGrid assembles a grid from nodes, assigning IDs in order, with
// every inter-node link set to def. Customise pairs afterwards with
// SetLink.
func NewGrid(def Link, nodes ...*Node) (*Grid, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("grid: no nodes")
	}
	if err := def.validate(); err != nil {
		return nil, err
	}
	g := &Grid{nodes: nodes}
	seen := map[string]bool{}
	for i, n := range nodes {
		n.ID = NodeID(i)
		if n.Name == "" {
			n.Name = fmt.Sprintf("node%d", i)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("grid: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if err := n.validate(); err != nil {
			return nil, err
		}
	}
	g.links = make([][]Link, len(nodes))
	for i := range g.links {
		g.links[i] = make([]Link, len(nodes))
		for j := range g.links[i] {
			if i == j {
				g.links[i][j] = LocalLink
			} else {
				g.links[i][j] = def
			}
		}
	}
	return g, nil
}

// NumNodes returns the number of processors.
func (g *Grid) NumNodes() int { return len(g.nodes) }

// Node returns the node with the given ID. It panics on an invalid ID.
func (g *Grid) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("grid: invalid node id %d", id))
	}
	return g.nodes[id]
}

// Nodes returns all nodes in ID order (shared slice; do not mutate).
func (g *Grid) Nodes() []*Node { return g.nodes }

// NodeByName returns the named node, or nil.
func (g *Grid) NodeByName(name string) *Node {
	for _, n := range g.nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Link returns the link from a to b (LocalLink when a == b).
func (g *Grid) Link(a, b NodeID) Link {
	return g.links[a][b]
}

// SetLink overrides the link between a and b in both directions.
// It panics on a self-link override or invalid IDs.
func (g *Grid) SetLink(a, b NodeID, l Link) error {
	if a == b {
		return fmt.Errorf("grid: cannot override self-link of node %d", a)
	}
	if int(a) < 0 || int(a) >= len(g.nodes) || int(b) < 0 || int(b) >= len(g.nodes) {
		return fmt.Errorf("grid: SetLink with invalid ids %d,%d", a, b)
	}
	if err := l.validate(); err != nil {
		return err
	}
	g.links[a][b] = l
	g.links[b][a] = l
	return nil
}

// SetChurn attaches a node-lifecycle schedule to the grid's scenario
// after validating that every event names a node of this grid. A nil
// schedule detaches churn.
func (g *Grid) SetChurn(cs *ChurnSchedule) error {
	if cs != nil {
		if err := cs.ValidateAgainst(g); err != nil {
			return err
		}
	}
	g.churn = cs
	return nil
}

// Churn returns the attached lifecycle schedule, or nil.
func (g *Grid) Churn() *ChurnSchedule { return g.churn }

// ResetLifecycle returns every node to Up — the start-of-run state
// before a churn schedule's initial joins are applied.
func (g *Grid) ResetLifecycle() {
	for _, n := range g.nodes {
		n.state = Up
	}
}

// String renders a short summary for logs and the gridsim tool.
func (g *Grid) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "grid: %d nodes\n", len(g.nodes))
	for _, n := range g.nodes {
		fmt.Fprintf(&b, "  %-12s speed=%.2f cores=%d\n", n.Name, n.Speed, n.Cores)
	}
	return b.String()
}
