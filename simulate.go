package gridpipe

import (
	"fmt"
	"io"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/exec"
	"gridpipe/internal/grid"
	"gridpipe/internal/sched"
	"gridpipe/internal/workload"
)

// SimGrid is a modelled computational grid for Simulate.
type SimGrid struct {
	g *grid.Grid
}

// HomogeneousGrid builds a grid of n identical speed-1 nodes on a LAN.
func HomogeneousGrid(n int) (*SimGrid, error) {
	g, err := grid.Homogeneous(n, 1, grid.LANLink)
	if err != nil {
		return nil, err
	}
	return &SimGrid{g: g}, nil
}

// HeterogeneousGrid builds a LAN grid with one node per relative speed.
func HeterogeneousGrid(speeds ...float64) (*SimGrid, error) {
	g, err := grid.Heterogeneous(speeds, grid.LANLink)
	if err != nil {
		return nil, err
	}
	return &SimGrid{g: g}, nil
}

// GridFromJSON builds a grid from the JSON schema documented in
// internal/grid (nodes with speeds/cores/load traces, link overrides).
func GridFromJSON(r io.Reader) (*SimGrid, error) {
	cfg, err := grid.LoadConfig(r)
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	return &SimGrid{g: g}, nil
}

// NumNodes returns the node count.
func (s *SimGrid) NumNodes() int { return s.g.NumNodes() }

// Describe renders a human-readable summary.
func (s *SimGrid) Describe() string { return s.g.String() }

// ChurnEvent is one scheduled node-lifecycle transition for WithChurn.
// Kind is one of "crash", "rejoin", "join", "drain":
//
//   - crash takes an Up node Down abruptly — its in-flight work is
//     lost and re-dispatched from the last stage boundary;
//   - rejoin brings a crashed node back;
//   - join brings a declared-but-absent node into the grid for the
//     first time (it is excluded from the deployment mapping and folded
//     in by the adaptive controller once it joins);
//   - drain retires a node gracefully: it finishes accepted work but
//     takes no new items.
type ChurnEvent struct {
	T    float64
	Node string
	Kind string
}

// WithChurn attaches a node-lifecycle schedule to the grid's scenario.
// Events are validated as a per-node state machine (crash of an
// unknown or already-down node, rejoin before a crash, and so on all
// error); Simulate then replays the schedule in virtual time. Calling
// WithChurn again replaces the schedule.
func (s *SimGrid) WithChurn(events ...ChurnEvent) error {
	evs := make([]grid.ChurnEvent, len(events))
	for i, ev := range events {
		kind, err := grid.ParseChurnKind(ev.Kind)
		if err != nil {
			return err
		}
		evs[i] = grid.ChurnEvent{T: ev.T, Node: ev.Node, Kind: kind}
	}
	cs, err := grid.NewChurnSchedule(evs...)
	if err != nil {
		return err
	}
	return s.g.SetChurn(cs)
}

// Policy names accepted by SimOptions.
const (
	PolicyStatic     = "static"
	PolicyPeriodic   = "periodic"
	PolicyReactive   = "reactive"
	PolicyPredictive = "predictive"
	PolicyOracle     = "oracle"
)

// parsePolicy resolves a policy name; "" means static.
func parsePolicy(name string) (adaptive.Policy, error) {
	if name == "" {
		return adaptive.PolicyStatic, nil
	}
	pol, err := adaptive.ParsePolicy(name)
	if err != nil {
		return 0, fmt.Errorf("gridpipe: %w", err)
	}
	return pol, nil
}

// SimOptions tune a simulation run.
type SimOptions struct {
	// Items > 0 runs that many items to completion; otherwise Duration
	// seconds of virtual time with a saturated source.
	Items    int
	Duration float64
	// Policy is one of the Policy* constants (default static).
	Policy string
	// InBytes is the input message size entering stage 1.
	InBytes float64
	// CV is the coefficient of variation of per-item service demand
	// (0 = deterministic).
	CV float64
	// Interval is the controller period in virtual seconds (default 1).
	Interval float64
	// Seed drives all randomness.
	Seed uint64
	// KillRestart switches the remap protocol from the default
	// drain-safe.
	KillRestart bool
}

// SimReport is the outcome of one simulated run.
type SimReport struct {
	// Done is the number of items completed.
	Done int
	// Makespan is the virtual completion time (fixed-item runs only).
	Makespan float64
	// Throughput is Done/elapsed in items per virtual second.
	Throughput float64
	// MeanLatency is the average per-item traversal time.
	MeanLatency float64
	// Remaps is how many reconfigurations the controller performed.
	Remaps int
	// FaultRemaps counts remaps forced by node crashes (subset of
	// Remaps).
	FaultRemaps int
	// Migrations is how many queued items remaps moved.
	Migrations int
	// Lost is the number of items dropped after exhausting their
	// crash-retry budget (8 re-dispatches); Retries counts
	// crash-induced re-dispatches.
	// Both are zero without churn.
	Lost    int
	Retries int
	// MeanAvailability is the node-averaged Up fraction of the grid
	// over the run under the churn schedule (1 without churn).
	MeanAvailability float64
	// InitialMapping and FinalMapping are tuple renderings of the
	// deployment-time and end-of-run mappings.
	InitialMapping, FinalMapping string
	// PredictedThroughput is the analytic model's estimate for the
	// initial mapping at zero load.
	PredictedThroughput float64
}

// Simulate runs the pipeline's cost model on a simulated grid. The
// initial mapping is searched at zero load (a deployment-time
// decision); the selected policy then adapts it as the grid's load
// traces unfold.
func (p *Pipeline) Simulate(sg *SimGrid, opts SimOptions) (SimReport, error) {
	if sg == nil {
		return SimReport{}, fmt.Errorf("gridpipe: nil grid")
	}
	pol, err := parsePolicy(opts.Policy)
	if err != nil {
		return SimReport{}, err
	}
	spec := p.spec
	spec.InBytes = opts.InBytes
	m0, pred, err := workload.Deploy(sg.g, spec, opts.Seed)
	if err != nil {
		return SimReport{}, err
	}
	proto := exec.DrainSafe
	if opts.KillRestart {
		proto = exec.KillRestart
	}
	out, err := workload.RunSim(sg.g, workload.App{Name: "user", Spec: spec, CV: opts.CV}, m0, workload.SimOptions{
		Items: opts.Items, Duration: opts.Duration,
		Policy: pol, Protocol: proto, Interval: opts.Interval,
		Seed: opts.Seed,
	})
	if err != nil {
		return SimReport{}, err
	}

	ex := out.Exec
	rep := SimReport{
		Done:                out.Done,
		Makespan:            out.Makespan,
		Remaps:              out.Ctrl.Remaps,
		FaultRemaps:         out.Ctrl.FaultRemaps,
		Migrations:          ex.Migrations(),
		Lost:                ex.Lost(),
		Retries:             ex.Retries(),
		MeanAvailability:    1,
		InitialMapping:      m0.String(),
		FinalMapping:        ex.Mapping().String(),
		PredictedThroughput: pred.Throughput,
	}
	elapsed := opts.Duration
	if opts.Items > 0 {
		elapsed = out.Makespan
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Done) / elapsed
	}
	if lats := ex.Latencies(); len(lats) > 0 {
		sum := 0.0
		for _, l := range lats {
			sum += l
		}
		rep.MeanLatency = sum / float64(len(lats))
	}
	if churn := sg.g.Churn(); churn != nil && elapsed > 0 {
		rep.MeanAvailability = churn.MeanAvailability(sg.g, elapsed)
	}
	return rep, nil
}

// PredictMapping exposes the analytic model for a caller-supplied node
// load vector: it returns the best mapping's tuple string and its
// predicted throughput: the public API's "what would the scheduler do"
// probe. (cmd/adaptpipe -explain ranks mappings through internal/sched
// directly.)
func (p *Pipeline) PredictMapping(sg *SimGrid, loads []float64, seed uint64) (string, float64, error) {
	m, _, err := (sched.LocalSearch{Seed: seed}).Search(sg.g, p.spec, loads)
	if err != nil {
		return "", 0, err
	}
	m, pred, err := sched.ImproveWithReplicationAvail(sg.g, p.spec, m, loads, 0, nil)
	if err != nil {
		return "", 0, err
	}
	return m.String(), pred.Throughput, nil
}

// Spec returns a copy of the pipeline's modelled specification
// (stage names, weights, message sizes).
func (p *Pipeline) Spec() []StageInfo {
	out := make([]StageInfo, len(p.spec.Stages))
	for i, s := range p.spec.Stages {
		out[i] = StageInfo{
			Name: s.Name, Weight: s.Work, OutBytes: s.OutBytes, Replicable: s.Replicable,
		}
	}
	return out
}

// StageInfo is the public view of one modelled stage.
type StageInfo struct {
	Name       string
	Weight     float64
	OutBytes   float64
	Replicable bool
}
