package grid

import (
	"fmt"

	"gridpipe/internal/trace"
)

// Standard link presets, calibrated to the interconnect classes of a
// 2008-era grid: a cluster switch, a campus backbone, and a wide-area
// path between sites.
var (
	LANLink    = Link{Latency: 100e-6, Bandwidth: 125e6} // 1 Gb/s, 0.1 ms
	CampusLink = Link{Latency: 1e-3, Bandwidth: 12.5e6}  // 100 Mb/s, 1 ms
	WANLink    = Link{Latency: 30e-3, Bandwidth: 1.25e6} // 10 Mb/s, 30 ms
)

// Homogeneous builds a grid of n identical idle nodes of the given
// speed connected by link.
func Homogeneous(n int, speed float64, link Link) (*Grid, error) {
	if n <= 0 {
		return nil, fmt.Errorf("grid: Homogeneous with %d nodes", n)
	}
	nodes := make([]*Node, n)
	for i := range nodes {
		nodes[i] = &Node{Name: fmt.Sprintf("node%d", i), Speed: speed, Cores: 1}
	}
	return NewGrid(link, nodes...)
}

// Heterogeneous builds a grid with one idle single-core node per speed.
func Heterogeneous(speeds []float64, link Link) (*Grid, error) {
	if len(speeds) == 0 {
		return nil, fmt.Errorf("grid: Heterogeneous with no speeds")
	}
	nodes := make([]*Node, len(speeds))
	for i, s := range speeds {
		nodes[i] = &Node{Name: fmt.Sprintf("node%d", i), Speed: s, Cores: 1}
	}
	return NewGrid(link, nodes...)
}

// Site describes one cluster of a multi-site grid.
type Site struct {
	Name  string
	Nodes int
	Speed float64
	Cores int
	Load  trace.Trace // applied to every node of the site; may be nil
}

// MultiSite builds a grid of several sites: nodes within a site are
// joined by intra; nodes of different sites by inter. This reproduces
// the cluster-of-clusters topology grid pipelines were mapped onto.
func MultiSite(sites []Site, intra, inter Link) (*Grid, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("grid: MultiSite with no sites")
	}
	var nodes []*Node
	var siteOf []int
	for si, s := range sites {
		if s.Nodes <= 0 {
			return nil, fmt.Errorf("grid: site %q has %d nodes", s.Name, s.Nodes)
		}
		cores := s.Cores
		if cores == 0 {
			cores = 1
		}
		for i := 0; i < s.Nodes; i++ {
			nodes = append(nodes, &Node{
				Name:  fmt.Sprintf("%s-%d", s.Name, i),
				Speed: s.Speed,
				Cores: cores,
				Load:  s.Load,
			})
			siteOf = append(siteOf, si)
		}
	}
	g, err := NewGrid(inter, nodes...)
	if err != nil {
		return nil, err
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if siteOf[i] == siteOf[j] {
				if err := g.SetLink(NodeID(i), NodeID(j), intra); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Saturate returns a trace that drives load to the maximum (node
// nearly stopped, but still Up) during [t0, t1) on top of a base load.
// It was called Outage until the node-lifecycle subsystem landed — a
// misnomer, since the node kept crawling through work at 2% speed
// instead of going Down; the name Outage now belongs to the true
// crash/rejoin primitive in lifecycle.go (see DESIGN.md, "Node
// lifecycle & churn").
func Saturate(base trace.Trace, t0, t1 float64) trace.Trace {
	if base == nil {
		base = trace.Constant(0)
	}
	return windowTrace{base: base, t0: t0, t1: t1, level: trace.MaxLoad}
}

// windowTrace overrides the base load with a fixed level inside
// [t0, t1).
type windowTrace struct {
	base   trace.Trace
	t0, t1 float64
	level  float64
}

func (o windowTrace) At(t float64) float64 {
	if t >= o.t0 && t < o.t1 {
		return o.level
	}
	return o.base.At(t)
}
