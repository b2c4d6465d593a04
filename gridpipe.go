// Package gridpipe is an adaptive parallel pipeline pattern for grids:
// a pipeline skeleton whose stages can be replicated and re-mapped at
// run time in response to changing resource performance.
//
// The package offers two execution modes over one pipeline definition:
//
//   - Live: the stages are real Go functions executed by goroutines on
//     the local machine with dynamic per-stage parallelism
//     (SetReplicas), preserving eSkel Pipeline1for1 semantics — one
//     output per input, in input order.
//
//   - Simulated: the pipeline's cost structure (per-stage service
//     demand and message sizes) is executed on a modelled grid of
//     heterogeneous, dynamically loaded nodes in virtual time, with the
//     full adaptivity engine (monitor → forecast → model → remap).
//     This is how the repository reproduces the paper's experiments;
//     see DESIGN.md.
//
// Quick start:
//
//	p, _ := gridpipe.New(
//	    gridpipe.Stage("parse", parseFn, gridpipe.Weight(0.02)),
//	    gridpipe.Stage("align", alignFn, gridpipe.Weight(0.35),
//	        gridpipe.Replicable(), gridpipe.Replicas(4)),
//	    gridpipe.Stage("score", scoreFn, gridpipe.Weight(0.05)),
//	)
//	out, err := p.Process(ctx, inputs)        // live
//	rep, err := p.Simulate(grid, opts)        // simulated
//
// Pipelines need not be linear: Split fans an item out over parallel
// branches and Merge joins the branch results back into one item, so
// diamond-shaped flows run (and simulate, and adapt) like chains do.
// A Merge stage's function receives a []any holding one part per
// branch, in branch order:
//
//	p, _ := gridpipe.New(
//	    gridpipe.Stage("decode", decodeFn, gridpipe.Weight(0.05)),
//	    gridpipe.Split(
//	        gridpipe.Branch(gridpipe.Stage("audio", audioFn, gridpipe.Weight(0.1))),
//	        gridpipe.Branch(gridpipe.Stage("video", videoFn, gridpipe.Weight(0.3),
//	            gridpipe.Replicable(), gridpipe.Replicas(2))),
//	    ),
//	    gridpipe.Merge("mux", func(ctx context.Context, v any) (any, error) {
//	        parts := v.([]any) // [audio result, video result]
//	        return mux(parts[0], parts[1]), nil
//	    }, gridpipe.Weight(0.02)),
//	)
//
// Both execution modes route along the same stage graph
// (internal/topo): live branches run concurrently on goroutines;
// simulated branches occupy their mapped grid nodes concurrently and
// the adaptivity engine remaps them like any other stage.
package gridpipe

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gridpipe/internal/adaptive"
	"gridpipe/internal/adaptive/liveadapt"
	"gridpipe/internal/model"
	"gridpipe/internal/pipeline"
	"gridpipe/internal/topo"
)

// StageFunc is the computation of one live stage. It must be safe for
// concurrent invocation when the stage is replicated. A Merge stage's
// function receives a []any with one part per branch, in branch order.
type StageFunc = pipeline.Func

// stageKind discriminates the definition forms New accepts.
type stageKind int

const (
	kindStage stageKind = iota
	kindSplit
	kindMerge
)

// StageDef describes one stage (or a Split of branches). Build with
// Stage, Split, or Merge.
type StageDef struct {
	name       string
	fn         StageFunc
	weight     float64
	outBytes   float64
	replicable bool
	replicas   int
	buffer     int

	kind     stageKind
	branches []BranchDef // kindSplit only
}

// BranchDef is one parallel branch of a Split: a chain of stages.
// Build with Branch.
type BranchDef []StageDef

// StageOpt customises a stage definition.
type StageOpt func(*StageDef)

// Weight declares the stage's mean per-item service demand in
// reference-seconds (seconds on an unloaded speed-1 processor). It
// drives the simulation and the mapping model; the live mode measures
// real durations instead.
func Weight(w float64) StageOpt { return func(s *StageDef) { s.weight = w } }

// OutBytes declares the size of the message each output sends to the
// next stage (simulation only). A Split broadcasts the producing
// stage's message to every branch.
func OutBytes(b float64) StageOpt { return func(s *StageDef) { s.outBytes = b } }

// Replicable marks the stage as stateless, allowing the adaptivity
// engine to farm it across nodes (and the live mode to run it with
// multiple workers).
func Replicable() StageOpt { return func(s *StageDef) { s.replicable = true } }

// Replicas sets the live mode's initial worker count (default 1).
// Values above 1 require Replicable.
func Replicas(n int) StageOpt { return func(s *StageDef) { s.replicas = n } }

// Buffer sets the stage's live input-buffer capacity (default 1).
func Buffer(n int) StageOpt { return func(s *StageDef) { s.buffer = n } }

// Stage builds a stage definition. fn may be nil for simulation-only
// pipelines.
func Stage(name string, fn StageFunc, opts ...StageOpt) StageDef {
	s := StageDef{name: name, fn: fn, weight: 0.1, replicas: 1, buffer: 1}
	for _, o := range opts {
		o(&s)
	}
	return s
}

// Branch groups a chain of stages into one parallel branch of a Split.
func Branch(stages ...StageDef) BranchDef { return BranchDef(stages) }

// Split fans the preceding stage's output over two or more parallel
// branches; each branch receives every item. A Split must be followed
// by a Merge, which joins the branch results back into one item.
func Split(branches ...BranchDef) StageDef {
	return StageDef{kind: kindSplit, branches: branches}
}

// Merge builds the fan-in stage closing a Split. Its function receives
// a []any holding one part per branch, in branch order, and returns
// the joined item.
func Merge(name string, fn StageFunc, opts ...StageOpt) StageDef {
	s := Stage(name, fn, opts...)
	s.kind = kindMerge
	return s
}

// Pipeline is a pipeline definition runnable live or in simulation.
type Pipeline struct {
	defs  []StageDef  // flattened, in topological order
	graph *topo.Graph // data-flow over the flattened stages
	spec  model.PipelineSpec

	// mu guards the live build/adaptive state below: the live pipeline
	// is single-use, and concurrent Run/Process callers racing past an
	// unguarded nil check would both "win". With the lock, the second
	// caller gets a clear single-use error instead of a corrupted run.
	mu       sync.Mutex
	live     *pipeline.Pipeline    // built lazily; single-use
	liveCfg  *liveadapt.Config     // set by WithLiveAdaptive
	liveCtrl *liveadapt.Controller // built when Run starts
	batchN   int                   // WithBatch grain (0 off, GrainAuto walked)
	batchOpt BatchOptions
}

// GrainAuto, passed to WithBatch, hands the batch size to the live
// adaptive controller: the grain starts at 1 and is walked up and down
// (doubling/halving under the controller's hysteresis and cooldown) to
// whatever the observed throughput supports — the paper's granularity
// adaptation as a second actuator next to replica counts. Requires
// WithLiveAdaptive with a non-static policy.
const GrainAuto = -1

// BatchOptions tunes WithBatch beyond the grain itself.
type BatchOptions struct {
	// Linger bounds how long a partial batch may wait for more input
	// at the pipeline head before being flushed anyway (default 1 ms),
	// so trickle inputs keep bounded latency at any grain.
	Linger time.Duration
	// Max bounds the grain the auto mode may walk to (default 256).
	Max int
}

// WithBatch makes batches of up to n items the unit crossing stage
// boundaries in the live mode, amortizing the per-transfer channel and
// scheduling overhead over n items. Ordered output is unchanged —
// batching is invisible except in throughput and (up to Linger)
// latency. Pass GrainAuto to let the live adaptive controller choose n
// at run time. Must be called before Run/Process.
func (p *Pipeline) WithBatch(n int, opts ...BatchOptions) error {
	if n != GrainAuto && n < 1 {
		return fmt.Errorf("gridpipe: WithBatch(%d): grain must be ≥ 1 or GrainAuto", n)
	}
	var o BatchOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	if o.Max < 0 {
		return fmt.Errorf("gridpipe: WithBatch: negative Max %d", o.Max)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live != nil {
		return fmt.Errorf("gridpipe: WithBatch after the live pipeline started")
	}
	p.batchN = n
	p.batchOpt = o
	if n > 1 {
		// Rate simulated/model predictions at the same grain.
		p.spec.Grain = n
	}
	return nil
}

// New validates the stage definitions and builds a pipeline. Stage
// names must be unique; Replicas and Buffer must be positive; more
// than one replica requires Replicable.
func New(stages ...StageDef) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("gridpipe: no stages")
	}
	p := &Pipeline{}
	names := map[string]bool{}
	var edges []topo.Edge

	// addStage validates and appends one flattened stage, wiring edges
	// from the given predecessors, and returns its index.
	addStage := func(s StageDef, preds []int) (int, error) {
		if s.name == "" {
			return 0, fmt.Errorf("gridpipe: stage %d has no name", len(p.defs))
		}
		if names[s.name] {
			return 0, fmt.Errorf("gridpipe: duplicate stage name %q", s.name)
		}
		names[s.name] = true
		if s.weight <= 0 {
			return 0, fmt.Errorf("gridpipe: stage %q has non-positive weight %v", s.name, s.weight)
		}
		if s.replicas <= 0 {
			return 0, fmt.Errorf("gridpipe: stage %q has non-positive replicas %d", s.name, s.replicas)
		}
		if s.replicas > 1 && !s.replicable {
			return 0, fmt.Errorf("gridpipe: stage %q has %d replicas but is not Replicable", s.name, s.replicas)
		}
		if s.buffer <= 0 {
			return 0, fmt.Errorf("gridpipe: stage %q has non-positive buffer %d", s.name, s.buffer)
		}
		idx := len(p.defs)
		p.defs = append(p.defs, s)
		for _, pr := range preds {
			edges = append(edges, topo.Edge{From: pr, To: idx, Bytes: p.defs[pr].outBytes})
		}
		return idx, nil
	}

	// frontier holds the stage indices whose out-edges attach to the
	// next definition; more than one means we are inside a split.
	var frontier []int
	for _, def := range stages {
		switch def.kind {
		case kindSplit:
			if len(p.defs) == 0 {
				return nil, fmt.Errorf("gridpipe: pipeline cannot start with a Split")
			}
			if len(frontier) != 1 {
				return nil, fmt.Errorf("gridpipe: nested Split (close the previous one with Merge first)")
			}
			if len(def.branches) < 2 {
				return nil, fmt.Errorf("gridpipe: Split needs at least 2 branches, got %d", len(def.branches))
			}
			head := frontier[0]
			frontier = frontier[:0]
			for bi, br := range def.branches {
				if len(br) == 0 {
					return nil, fmt.Errorf("gridpipe: Split branch %d is empty", bi)
				}
				prev := head
				for _, bs := range br {
					if bs.kind != kindStage {
						return nil, fmt.Errorf("gridpipe: branch %d contains a nested Split/Merge", bi)
					}
					idx, err := addStage(bs, []int{prev})
					if err != nil {
						return nil, err
					}
					prev = idx
				}
				frontier = append(frontier, prev)
			}
		case kindMerge:
			if len(frontier) < 2 {
				return nil, fmt.Errorf("gridpipe: Merge %q without a preceding Split", def.name)
			}
			idx, err := addStage(def, frontier)
			if err != nil {
				return nil, err
			}
			frontier = []int{idx}
		default:
			if len(frontier) > 1 {
				return nil, fmt.Errorf("gridpipe: stage %q follows a Split; close it with Merge", def.name)
			}
			idx, err := addStage(def, frontier)
			if err != nil {
				return nil, err
			}
			frontier = []int{idx}
		}
	}
	if len(frontier) != 1 {
		return nil, fmt.Errorf("gridpipe: pipeline ends inside a Split; add a Merge")
	}

	tstages := make([]topo.Stage, len(p.defs))
	for i, s := range p.defs {
		tstages[i] = topo.Stage{
			Name:       s.name,
			Work:       s.weight,
			OutBytes:   s.outBytes,
			Replicable: s.replicable,
		}
	}
	g, err := topo.New(tstages, edges)
	if err != nil {
		return nil, fmt.Errorf("gridpipe: %w", err)
	}
	p.graph = g
	spec, err := model.FromGraph(g, 0)
	if err != nil {
		return nil, fmt.Errorf("gridpipe: %w", err)
	}
	p.spec = spec
	return p, nil
}

// NumStages returns the stage count (flattened: branch stages count
// individually, in declaration order).
func (p *Pipeline) NumStages() int { return len(p.defs) }

// Graph returns the pipeline's stage graph.
func (p *Pipeline) Graph() *topo.Graph { return p.graph }

// buildLive constructs the single-use live pipeline. The caller must
// hold p.mu.
func (p *Pipeline) buildLive() (*pipeline.Pipeline, error) {
	if p.live != nil {
		return nil, fmt.Errorf("gridpipe: live pipeline already running (single-use)")
	}
	stages := make([]pipeline.Stage, len(p.defs))
	for i, s := range p.defs {
		if s.fn == nil {
			return nil, fmt.Errorf("gridpipe: stage %q has no function (simulation-only pipeline?)", s.name)
		}
		reps := s.replicas
		if !s.replicable {
			reps = 1
		}
		stages[i] = pipeline.Stage{
			Name: s.name, Fn: s.fn, Replicas: reps, Buffer: s.buffer,
		}
	}
	lp, err := pipeline.NewGraph(stages, p.graph.Edges)
	if err != nil {
		return nil, err
	}
	if p.batchN != 0 {
		grain := p.batchN
		if grain == GrainAuto {
			if p.liveCfg == nil || p.liveCfg.Policy == adaptive.PolicyStatic {
				return nil, fmt.Errorf("gridpipe: WithBatch(GrainAuto) needs WithLiveAdaptive with a non-static policy")
			}
			grain = 1 // the controller walks it from here
			p.liveCfg.AdaptGrain = true
			p.liveCfg.MaxGrain = p.batchOpt.Max
		}
		if err := lp.EnableBatch(grain, p.batchOpt.Linger); err != nil {
			return nil, err
		}
	}
	p.live = lp
	return lp, nil
}

// LiveAdaptiveOptions tunes WithLiveAdaptive. The zero value picks the
// live controller's defaults.
type LiveAdaptiveOptions struct {
	// Interval is the wall-clock sensing/decision period
	// (default 250 ms).
	Interval time.Duration
	// MaxWorkers is the total worker budget across all stages
	// (default 2×GOMAXPROCS) — the reserve capacity the controller may
	// fold in when throughput degrades.
	MaxWorkers int
	// HysteresisGain is the minimum predicted throughput ratio
	// new/current required to resize (default 1.15).
	HysteresisGain float64
	// Cooldown is the minimum wall time between two resizes
	// (default 2×Interval).
	Cooldown time.Duration
}

// WithLiveAdaptive arms run-time adaptation for the live execution
// mode: when Run (or Process) starts the pipeline, a wall-clock
// controller samples each stage's service times, feeds the same
// forecast/trigger machinery the simulator uses, and rebalances the
// per-stage worker pools via SetReplicas under a fixed budget — the
// paper's self-adaptation claim, on real goroutines under real CPU
// contention. policy is one of the Policy* constants ("static" leaves
// the controller inert; "oracle" is simulation-only). Must be called
// before Run.
func (p *Pipeline) WithLiveAdaptive(policy string, opts ...LiveAdaptiveOptions) error {
	pol, err := parsePolicy(policy)
	if err != nil {
		return err
	}
	if pol == adaptive.PolicyOracle {
		return fmt.Errorf("gridpipe: policy %q is simulation-only (no ground-truth loads live)", policy)
	}
	var o LiveAdaptiveOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live != nil {
		return fmt.Errorf("gridpipe: WithLiveAdaptive after the live pipeline started")
	}
	p.liveCfg = &liveadapt.Config{
		Policy:         pol,
		Interval:       o.Interval,
		MaxWorkers:     o.MaxWorkers,
		HysteresisGain: o.HysteresisGain,
		Cooldown:       o.Cooldown,
	}
	return nil
}

// withLiveBudget arms live adaptation with a cluster-provided config
// (shared worker budget included). An explicit WithLiveAdaptive keeps
// its policy and thresholds; only the budget hook is injected.
func (p *Pipeline) withLiveBudget(cfg liveadapt.Config) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.live != nil {
		return fmt.Errorf("gridpipe: cluster Process after the live pipeline started")
	}
	if p.liveCfg != nil {
		p.liveCfg.BudgetCap = cfg.BudgetCap
		p.liveCfg.MaxWorkers = cfg.MaxWorkers
		return nil
	}
	p.liveCfg = &cfg
	return nil
}

// liveStageInfo projects the stage definitions for the live controller.
func (p *Pipeline) liveStageInfo() []liveadapt.StageInfo {
	info := make([]liveadapt.StageInfo, len(p.defs))
	for i, s := range p.defs {
		info[i] = liveadapt.StageInfo{Name: s.name, Weight: s.weight, Replicable: s.replicable}
	}
	return info
}

// Process runs the pipeline live over the inputs and returns outputs in
// input order.
func (p *Pipeline) Process(ctx context.Context, inputs []any) ([]any, error) {
	// One critical section for the config check and the build: a
	// concurrent WithLiveAdaptive cannot slip in between and be
	// silently ignored.
	p.mu.Lock()
	if p.liveCfg == nil {
		lp, err := p.buildLive()
		p.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return lp.Process(ctx, inputs)
	}
	p.mu.Unlock()
	// Collect wires Run before it starts the feeder: if Run refuses
	// (say, an unreplicable pipeline under an adaptive policy) no
	// goroutine is left blocked on a channel nobody will ever read.
	return pipeline.Collect(ctx, inputs, p.Run)
}

// Run starts the pipeline live over a stream. See
// internal/pipeline.Pipeline.Run for channel semantics. With
// WithLiveAdaptive configured, the adaptation loop starts with the
// pipeline and stops when the output drains.
func (p *Pipeline) Run(ctx context.Context, inputs <-chan any) (<-chan any, <-chan error, error) {
	p.mu.Lock()
	lp, err := p.buildLive()
	if err != nil {
		p.mu.Unlock()
		return nil, nil, err
	}
	cfg := p.liveCfg
	p.mu.Unlock()
	if cfg == nil {
		out, errs := lp.Run(ctx, inputs)
		return out, errs, nil
	}
	ctrl, err := liveadapt.ForPipeline(lp, p.liveStageInfo(), *cfg)
	if err != nil {
		return nil, nil, err
	}
	p.mu.Lock()
	p.liveCtrl = ctrl
	p.mu.Unlock()
	// The loop stops on the run's own goroutine, before the output closes:
	// an armed run has the goroutines and the hops of an unarmed one.
	lp.OnDone(ctrl.Stop)
	ctrl.Start()
	out, errs := lp.Run(ctx, inputs)
	return out, errs, nil
}

// LiveAdaptationEvent is one live resize decision.
type LiveAdaptationEvent struct {
	// Time is seconds since the live run started.
	Time float64
	// From and To render the worker-count vectors.
	From, To string
	// PredictedOld and PredictedNew are the controller's throughput
	// estimates (items/s) before and after the resize.
	PredictedOld, PredictedNew float64
}

// LiveAdaptiveReport summarises the live controller's activity.
type LiveAdaptiveReport struct {
	// Ticks, Searches, and Resizes count decision rounds, planning
	// rounds, and actual reconfigurations.
	Ticks, Searches, Resizes int
	Events                   []LiveAdaptationEvent
	// Replicas is the current per-stage worker vector (flattened
	// declaration order).
	Replicas []int
	// Grain is the current boundary batch size (1 when batching is
	// off; walked by the controller under WithBatch(GrainAuto)).
	Grain int
}

// LiveAdaptiveReport returns the live controller's activity so far
// (zero value when WithLiveAdaptive was not configured or Run has not
// started).
func (p *Pipeline) LiveAdaptiveReport() LiveAdaptiveReport {
	p.mu.Lock()
	ctrl := p.liveCtrl
	p.mu.Unlock()
	if ctrl == nil {
		return LiveAdaptiveReport{}
	}
	st := ctrl.Stats()
	rep := LiveAdaptiveReport{
		Ticks:    st.Ticks,
		Searches: st.Searches,
		Resizes:  st.Remaps,
		Replicas: ctrl.Replicas(),
		Grain:    ctrl.Grain(),
	}
	for _, ev := range st.Events {
		rep.Events = append(rep.Events, LiveAdaptationEvent{
			Time:         ev.Time,
			From:         ev.From.String(),
			To:           ev.To.String(),
			PredictedOld: ev.PredictedOld,
			PredictedNew: ev.PredictedNew,
		})
	}
	return rep
}

// SetReplicas adjusts a running live stage's worker limit. Stages are
// indexed in flattened declaration order (see Spec).
func (p *Pipeline) SetReplicas(stage, n int) error {
	p.mu.Lock()
	lp := p.live
	p.mu.Unlock()
	if lp == nil {
		return fmt.Errorf("gridpipe: pipeline not running live")
	}
	return lp.SetReplicas(stage, n)
}

// LiveStats snapshots per-stage live counters (nil if not running
// live).
func (p *Pipeline) LiveStats() []pipeline.StageStats {
	p.mu.Lock()
	lp := p.live
	p.mu.Unlock()
	if lp == nil {
		return nil
	}
	return lp.Stats()
}
