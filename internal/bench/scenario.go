package bench

import (
	"fmt"
	"path/filepath"
	"runtime"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/rng"
	"gridpipe/internal/trace"
	"gridpipe/internal/workload"
)

// must returns v, or panics naming the call site when err is set.
// Every experiment runs on arguments written into its source, so an
// error from one of its calls is a bug in the experiment, never an
// outcome to report.
func must[T any](v T, err error) T {
	if err != nil {
		_, file, line, _ := runtime.Caller(1)
		panic(fmt.Sprintf("bench: %s:%d: %v", filepath.Base(file), line, err))
	}
	return v
}

// stepTrace is a zero load that jumps to level at t.
func stepTrace(t, level float64) trace.Trace {
	return trace.NewSteps(0, trace.StepChange{T: t, Load: level})
}

// rngFor returns a fresh deterministic generator for a seed.
func rngFor(seed uint64) *rng.Rand { return rng.New(seed) }

// spikeGrid builds an n-node homogeneous grid where the given node is
// hit by a background-load step of the given level at spikeAt.
func spikeGrid(n int, victim int, spikeAt, level float64) *grid.Grid {
	nodes := make([]*grid.Node, n)
	for i := range nodes {
		nodes[i] = &grid.Node{Name: fmt.Sprintf("node%d", i), Speed: 1, Cores: 1}
	}
	if victim >= 0 && victim < n {
		nodes[victim].Load = stepTrace(spikeAt, level)
	}
	return must(grid.NewGrid(grid.LANLink, nodes...))
}

// deploy is the deployment-time mapping workload.Deploy finds for spec
// on g.
func deploy(g *grid.Grid, spec model.PipelineSpec, seed uint64) model.Mapping {
	m, _, err := workload.Deploy(g, spec, seed)
	return must(m, err)
}

// mainPolicies is the policy set compared across the figures.
var mainPolicies = []adaptive.Policy{
	adaptive.PolicyStatic,
	adaptive.PolicyReactive,
	adaptive.PolicyPredictive,
	adaptive.PolicyOracle,
}
