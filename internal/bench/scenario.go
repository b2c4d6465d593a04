package bench

import (
	"fmt"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/rng"
	"gridpipe/internal/trace"
)

// stepTrace is a zero load that jumps to level at t.
func stepTrace(t, level float64) trace.Trace {
	return trace.NewSteps(0, trace.StepChange{T: t, Load: level})
}

// rngFor returns a fresh deterministic generator for a seed.
func rngFor(seed uint64) *rng.Rand { return rng.New(seed) }

// spikeGrid builds an n-node homogeneous grid where the given node is
// hit by a background-load step of the given level at spikeAt.
func spikeGrid(n int, victim int, spikeAt, level float64) (*grid.Grid, error) {
	nodes := make([]*grid.Node, n)
	for i := range nodes {
		nodes[i] = &grid.Node{Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1}
	}
	if victim >= 0 && victim < n {
		nodes[victim].Load = stepTrace(spikeAt, level)
	}
	return grid.NewGrid(grid.LANLink, nodes...)
}

// mainPolicies is the policy set compared across the figures.
var mainPolicies = []adaptive.Policy{
	adaptive.PolicyStatic,
	adaptive.PolicyReactive,
	adaptive.PolicyPredictive,
	adaptive.PolicyOracle,
}
