package workload

import (
	"fmt"
	"sync"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/adaptive/simadapt"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/model"
	"gridpipe/internal/sched"
	"gridpipe/internal/sim"
)

// enginePool recycles simulation engines across runs: a Reset engine
// keeps its event-slab capacity, so the thousands of runs behind an
// experiment sweep re-enter allocation-free steady state immediately
// instead of re-growing a calendar each time.
var enginePool = sync.Pool{New: func() any { return new(sim.Engine) }}

// Deploy is the deployment-time mapping search: a local search from
// seed on the idle grid, then replication of the bottleneck stages. It
// places stages only on the nodes that are up at t=0 under the grid's
// churn schedule; a node that joins later is left for the controller
// to fold in.
func Deploy(g *grid.Grid, spec model.PipelineSpec, seed uint64) (model.Mapping, model.Prediction, error) {
	var avail []bool
	if cs := g.Churn(); cs != nil {
		avail = cs.InitialAvail(g)
	}
	m, _, err := sched.LocalSearch{Seed: seed}.SearchAvail(g, spec, nil, avail)
	if err != nil {
		return model.Mapping{}, model.Prediction{}, err
	}
	return sched.ImproveWithReplicationAvail(g, spec, m, nil, 0, avail)
}

// SimOptions configures one simulated run. Exactly one of Items and
// Duration must be set; every other field has a default.
type SimOptions struct {
	// Items runs this many items to completion; Duration instead runs
	// the virtual clock to that instant under a saturated source.
	Items    int
	Duration float64
	// Policy, Protocol and Interval configure the adaptive controller
	// (simadapt.Config); HysteresisGain overrides its hysteresis.
	Policy         adaptive.Policy
	Protocol       exec.RemapProtocol
	Interval       float64
	HysteresisGain float64
	// Seed seeds the work sampler and the executor; the controller's
	// remap search runs from Seed+1.
	Seed uint64
	// MaxInFlight bounds the items in the pipeline (default 4 × stages).
	MaxInFlight int
	// Sampler replaces the app's per-item work sampler when non-nil.
	Sampler func(stage, seq int) float64
}

// SimOutcome is what a simulated run produced.
type SimOutcome struct {
	Done     int
	Makespan float64 // Items runs only
	Ctrl     adaptive.Stats
	// Exec is the executor the run drove, for callers that read more of
	// its ledger (migrations, redone and lost work, completion times).
	// Its engine is back in the pool: read it, never run it again.
	Exec *exec.Executor
}

// RunSim runs app on g in virtual time from the initial mapping, with
// the grid's churn schedule replayed and the options' policy adapting
// the mapping as load unfolds.
func RunSim(g *grid.Grid, app App, initial model.Mapping, o SimOptions) (SimOutcome, error) {
	if (o.Items > 0) == (o.Duration > 0) {
		return SimOutcome{}, fmt.Errorf("workload: set exactly one of Items/Duration")
	}
	eng := enginePool.Get().(*sim.Engine)
	// Every engine enters the pool Reset. The Reset also drops the
	// run's un-fired events — controller tickers, queued arrivals —
	// whose callbacks would otherwise keep the whole executor reachable
	// from the pool.
	defer func() {
		eng.Reset()
		enginePool.Put(eng)
	}()
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 4 * app.Spec.NumStages()
	}
	if o.Sampler == nil {
		o.Sampler = app.Sampler(o.Seed)
	}
	ex, err := exec.New(eng, g, app.Spec, initial, exec.Options{
		MaxInFlight: o.MaxInFlight,
		WorkSampler: o.Sampler,
		Seed:        o.Seed,
	})
	if err != nil {
		return SimOutcome{}, err
	}
	if err := ex.InstallChurn(g.Churn()); err != nil {
		return SimOutcome{}, err
	}
	ctrl, err := simadapt.New(eng, g, ex, app.Spec, simadapt.Config{
		Policy:         o.Policy,
		Interval:       o.Interval,
		Protocol:       o.Protocol,
		HysteresisGain: o.HysteresisGain,
		Searcher:       sched.LocalSearch{Seed: o.Seed + 1},
	})
	if err != nil {
		return SimOutcome{}, err
	}
	ctrl.Start()
	out := SimOutcome{Exec: ex}
	if o.Items > 0 {
		if out.Makespan, err = ex.RunItems(o.Items); err != nil {
			return SimOutcome{}, err
		}
		out.Done = ex.Done()
	} else {
		out.Done = ex.RunUntil(o.Duration)
	}
	ctrl.Stop()
	out.Ctrl = ctrl.Stats()
	return out, nil
}
